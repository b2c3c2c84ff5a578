package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"genogo/internal/engine"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
	"genogo/internal/obs"
	"genogo/internal/resilience"
)

// Client-side resilience defaults.
const (
	// DefaultRequestTimeout bounds each HTTP request of a fresh client.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultMaxBodyBytes caps each response body, bounding the memory a
	// misbehaving or malicious node can make a requester allocate.
	DefaultMaxBodyBytes = 256 << 20
	// releaseTimeout bounds the best-effort Release of a staged result on
	// failure paths whose own context has already expired.
	releaseTimeout = 5 * time.Second
)

// Client talks to one federation node. BytesReceived accumulates payload
// traffic so experiments can compare the federated ("ship the query")
// architecture with the naive ("ship the data") one.
//
// Retrier and Breaker are optional: when set, every request is retried per
// the retrier's policy and gated by the breaker (per-endpoint circuit
// breaking). A Client is safe for concurrent use: under a replica placement,
// legs with overlapping member sets dispatch to the same client at once.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Retrier retries transient request failures (nil = no retries).
	Retrier *resilience.Retrier
	// Breaker fails fast against an endpoint that keeps failing
	// (nil = no circuit breaking).
	Breaker *resilience.Breaker
	// MaxBodyBytes caps response bodies; <= 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// BytesReceived and BytesSent are accessed atomically (read them via
	// Bytes while requests may be in flight).
	BytesReceived int64
	BytesSent     int64
}

// Bytes totals payload traffic through this client, safe against in-flight
// requests.
func (c *Client) Bytes() int64 {
	return atomic.LoadInt64(&c.BytesReceived) + atomic.LoadInt64(&c.BytesSent)
}

// Option configures a Client built by NewClient.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.HTTP = h } }

// WithTransport substitutes the HTTP transport (e.g. a ChaosTransport).
func WithTransport(rt http.RoundTripper) Option {
	return func(c *Client) { c.HTTP.Transport = rt }
}

// WithTimeout sets the per-request timeout.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.HTTP.Timeout = d } }

// WithRetrier enables retries.
func WithRetrier(r *resilience.Retrier) Option { return func(c *Client) { c.Retrier = r } }

// WithBreaker enables circuit breaking.
func WithBreaker(b *resilience.Breaker) Option { return func(c *Client) { c.Breaker = b } }

// WithMaxBodyBytes caps response bodies.
func WithMaxBodyBytes(n int64) Option { return func(c *Client) { c.MaxBodyBytes = n } }

// NewClient builds a client for the node at baseURL. Each client owns a
// dedicated http.Client with a sane timeout — never http.DefaultClient,
// whose lack of a timeout lets one dead node hang a requester forever.
func NewClient(baseURL string, opts ...Option) *Client {
	c := &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Timeout: DefaultRequestTimeout},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func (c *Client) maxBody() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

// readAll drains a response body under the configured body cap. A declared
// Content-Length sizes the buffer once, so a result chunk is not grown and
// copied a dozen times on its way in; the cap bounds that buffer like any
// other.
func (c *Client) readAll(resp *http.Response) ([]byte, error) {
	limit := c.maxBody()
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare bytes to see EOF
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, limit+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > limit {
		return nil, fmt.Errorf("response exceeds %d-byte cap", limit)
	}
	return buf.Bytes(), nil
}

// truncateBody shortens an error payload for inclusion in error text.
func truncateBody(b []byte) string {
	const max = 256
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// do performs one HTTP exchange under the client's resilience policy:
// breaker-gated, retried per the retrier, body capped. It returns the
// response body and headers of the (first) attempt that answered with
// wantStatus; any other status is a *resilience.StatusError.
//
// Trace propagation: when the context carries a query identity
// (obs.WithQueryID) every request is stamped with X-Query-ID, and a
// coordinator span reference (withCallTrace) adds X-Parent-Span — the
// serving node files its execution under that identity in its own query
// registry. The call trace also counts attempts, making retries visible in
// federated profiles.
func (c *Client) do(ctx context.Context, method, path string, payload []byte, wantStatus int) ([]byte, http.Header, error) {
	var body []byte
	var hdr http.Header
	qid := obs.QueryIDFrom(ctx)
	ct := callTraceFrom(ctx)
	op := func(ctx context.Context) error {
		body, hdr = nil, nil
		if ct != nil {
			ct.attempts++
		}
		if err := c.Breaker.Allow(); err != nil {
			return err
		}
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return err
		}
		if qid != "" {
			req.Header.Set(obs.HeaderQueryID, qid)
		}
		if ct != nil && ct.parent != "" {
			req.Header.Set(obs.HeaderParentSpan, ct.parent)
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
			atomic.AddInt64(&c.BytesSent, int64(len(payload)))
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			c.Breaker.Report(err)
			return err
		}
		defer resp.Body.Close()
		b, err := c.readAll(resp)
		if err != nil {
			c.Breaker.Report(err)
			return err
		}
		atomic.AddInt64(&c.BytesReceived, int64(len(b)))
		if resp.StatusCode != wantStatus {
			serr := &resilience.StatusError{
				Code: resp.StatusCode, Status: resp.Status, Body: truncateBody(b),
			}
			// Shed responses (429/503 from the admission gate) say when to
			// come back; carry the hint so the retrier honors it instead of
			// its own backoff schedule.
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
					serr.RetryAfter = time.Duration(secs) * time.Second
				}
			}
			c.Breaker.Report(serr)
			return serr
		}
		c.Breaker.Report(nil)
		body, hdr = b, resp.Header
		return nil
	}
	if err := c.Retrier.Do(ctx, op); err != nil {
		return nil, nil, err
	}
	return body, hdr, nil
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	body, _, err := c.do(ctx, http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return fmt.Errorf("federation: GET %s: %w", path, err)
	}
	return json.Unmarshal(body, out)
}

func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("federation: POST %s: %w", path, err)
	}
	body, _, err := c.do(ctx, http.MethodPost, path, payload, http.StatusOK)
	if err != nil {
		return fmt.Errorf("federation: POST %s: %w", path, err)
	}
	return json.Unmarshal(body, out)
}

// ListDatasets fetches the node's dataset catalog.
func (c *Client) ListDatasets(ctx context.Context) ([]DatasetInfo, error) {
	var out []DatasetInfo
	if err := c.getJSON(ctx, "/datasets", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Compile submits a script for compilation and size estimation.
func (c *Client) Compile(ctx context.Context, script, varName string) (CompileResponse, error) {
	var out CompileResponse
	err := c.postJSON(ctx, "/compile", CompileRequest{Script: script, Var: varName}, &out)
	return out, err
}

// Execute runs a query remotely; the result stays staged at the node.
func (c *Client) Execute(ctx context.Context, script, varName string) (QueryResponse, error) {
	return c.execute(ctx, script, varName, nil, false)
}

// ExecuteProfiled runs a query remotely and asks the node to record and
// return its execution span tree (QueryResponse.Profile) — remote
// EXPLAIN ANALYZE.
func (c *Client) ExecuteProfiled(ctx context.Context, script, varName string) (QueryResponse, error) {
	return c.execute(ctx, script, varName, nil, true)
}

// ExecuteWithUserData runs a query remotely, shipping a private user dataset
// alongside it. The dataset participates in this query only; the node never
// lists or stores it (Section 4.3's privacy-protected user input samples).
func (c *Client) ExecuteWithUserData(ctx context.Context, script, varName string, user *gdm.Dataset) (QueryResponse, error) {
	return c.execute(ctx, script, varName, user, false)
}

func (c *Client) execute(ctx context.Context, script, varName string, user *gdm.Dataset, profile bool) (QueryResponse, error) {
	req := QueryRequest{Script: script, Var: varName, Profile: profile}
	if user != nil {
		var buf bytes.Buffer
		if err := formats.EncodeDataset(&buf, user); err != nil {
			return QueryResponse{}, fmt.Errorf("federation: encoding user dataset: %w", err)
		}
		req.UserDataset = buf.Bytes()
	}
	var out QueryResponse
	if err := c.postJSON(ctx, "/query", req, &out); err != nil {
		return out, err
	}
	if !out.OK {
		return out, fmt.Errorf("federation: remote query failed: %s", out.Error)
	}
	return out, nil
}

// FetchChunk retrieves samples [start, start+count) of a staged result,
// returning the chunk and the staged total.
func (c *Client) FetchChunk(ctx context.Context, resultID string, start, count int) (*gdm.Dataset, int, error) {
	body, total, err := c.fetchFrame(ctx, resultID, start, count)
	if err != nil {
		return nil, 0, err
	}
	ds, err := formats.DecodeFrame(body)
	if err != nil {
		return nil, 0, err
	}
	return ds, total, nil
}

// fetchFrame retrieves samples [start, start+count) of a staged result as an
// undecoded frame, with the staged total.
func (c *Client) fetchFrame(ctx context.Context, resultID string, start, count int) ([]byte, int, error) {
	path := fmt.Sprintf("/results/%s?start=%d&count=%d", resultID, start, count)
	body, hdr, err := c.do(ctx, http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return nil, 0, fmt.Errorf("federation: fetch %s: %w", resultID, err)
	}
	total, _ := strconv.Atoi(hdr.Get("X-Total-Samples"))
	return body, total, nil
}

// FetchAll retrieves a whole staged result in chunks of chunkSize samples —
// the "deferred result retrieval through limited staging" of Section 4.3.
//
// It keeps one chunk ahead: once a chunk's body, and with it the staged
// total, is in hand, the next chunk's request goes out, and only then is the
// chunk in hand decoded, so the wire and the decode overlap. On any failure
// the request in flight is cancelled and awaited before FetchAll returns,
// and no part of the result is returned.
//
// When the context carries a span (obs.WithSpan) each chunk records a CHUNK
// child span, in sample order, with its sample range, data volume, and retry
// attempts, so a federated profile shows exactly how a member's result
// traveled. A CHUNK span runs from its request to the end of its decode.
func (c *Client) FetchAll(ctx context.Context, resultID string, chunkSize int) (*gdm.Dataset, error) {
	if chunkSize <= 0 {
		chunkSize = 8
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var out *gdm.Dataset
	cur := c.startChunk(ctx, resultID, 0, chunkSize)
	total := -1
	for {
		got := <-cur.done
		if got.err != nil {
			cur.finish("fetch", nil)
			return nil, got.err
		}
		if total >= 0 && got.total != total {
			cur.finish("fetch", nil)
			return nil, fmt.Errorf("federation: fetch %s: staged total changed from %d to %d", resultID, total, got.total)
		}
		total = got.total
		// The server clamps every window to the staged total, so the total
		// alone says what this chunk holds and where the next one starts.
		n := min(chunkSize, max(total-cur.start, 0))
		var next *pendingChunk
		if cur.start+n < total {
			next = c.startChunk(ctx, resultID, cur.start+n, chunkSize)
		}
		chunk, err := formats.DecodeFrame(got.body)
		if err == nil && len(chunk.Samples) != n {
			err = fmt.Errorf("federation: fetch %s: chunk at %d holds %d samples, want %d", resultID, cur.start, len(chunk.Samples), n)
		}
		if err != nil {
			cur.finish("decode", nil)
			if next != nil {
				cancel()
				<-next.done
				next.finish("cancelled", nil)
			}
			return nil, err
		}
		cur.finish("", chunk)
		if out == nil {
			out = gdm.NewDataset(chunk.Name, chunk.Schema)
		}
		out.Samples = append(out.Samples, chunk.Samples...)
		if next == nil {
			return out, nil
		}
		cur = next
	}
}

// pendingChunk is one FetchAll chunk request in flight, with its CHUNK span
// (nil when the fetch is unprofiled).
type pendingChunk struct {
	start int
	done  chan fetchedChunk // receives exactly one value
	span  *obs.Span
	ct    *callTrace
	began time.Time
}

// fetchedChunk is the outcome of one chunk request.
type fetchedChunk struct {
	body  []byte
	total int
	err   error
}

// startChunk opens the chunk's span on the calling goroutine, so that spans
// stay in sample order, and issues its request on a new one.
func (c *Client) startChunk(ctx context.Context, resultID string, start, count int) *pendingChunk {
	p := &pendingChunk{start: start, done: make(chan fetchedChunk, 1)}
	if parent := obs.SpanFrom(ctx); parent != nil {
		p.span = obs.NewSpan("CHUNK")
		p.span.Detail = fmt.Sprintf("CHUNK %s [%d,%d)", resultID, start, start+count)
		p.span.Mode = "fed"
		parent.AddChild(p.span)
		p.ct = &callTrace{}
		if prev := callTraceFrom(ctx); prev != nil {
			p.ct.parent = prev.parent
		}
		ctx = withCallTrace(ctx, p.ct)
		p.began = time.Now()
	}
	go func() {
		body, total, err := c.fetchFrame(ctx, resultID, start, count)
		p.done <- fetchedChunk{body: body, total: total, err: err}
	}()
	return p
}

// finish closes the chunk's span once its request has returned: the retry
// attempts, the failed stage when failed is set, else the chunk's volume.
func (p *pendingChunk) finish(failed string, chunk *gdm.Dataset) {
	if p.span == nil {
		return
	}
	if p.ct.attempts > 1 {
		p.span.SetAttr("attempts", strconv.Itoa(p.ct.attempts))
	}
	if failed != "" {
		p.span.SetAttr("error", failed)
	} else {
		p.span.SetOutput(len(chunk.Samples), chunk.NumRegions())
	}
	p.span.Finish(p.began)
}

// Release frees a staged result at the node.
func (c *Client) Release(ctx context.Context, resultID string) error {
	_, _, err := c.do(ctx, http.MethodDelete, "/results/"+resultID, nil, http.StatusNoContent)
	if err != nil {
		return fmt.Errorf("federation: release %s: %w", resultID, err)
	}
	return nil
}

// DownloadDataset pulls a whole remote dataset — the transfer the federated
// architecture exists to avoid; used for the naive baseline and by the
// genome-net crawler.
func (c *Client) DownloadDataset(ctx context.Context, name string) (*gdm.Dataset, error) {
	body, _, err := c.do(ctx, http.MethodGet, "/datasets/"+name+"/stream", nil, http.StatusOK)
	if err != nil {
		return nil, fmt.Errorf("federation: download %s: %w", name, err)
	}
	return formats.DecodeFrame(body)
}

// NodeFailure records one lost leg of a federated query.
type NodeFailure struct {
	Node  string // the base URL of every replica tried, joined by "+"
	Stage string // where the last attempt failed: "execute" or "fetch"
	Err   error
}

// String renders the failure for reports and logs.
func (nf NodeFailure) String() string {
	return fmt.Sprintf("%s (%s): %v", nf.Node, nf.Stage, nf.Err)
}

// PartialFailure is the structured degraded-mode report: exactly the legs
// whose results are missing from a federated answer, and why.
// QueryID is the federated query's identity, so a partial-failure report
// correlates with the /debug/queries console entry and the slow-log lines
// of every node the query touched.
type PartialFailure struct {
	QueryID string
	Failed  []NodeFailure
}

// Error implements error, so a PartialFailure can travel as the query
// error when the failure is fatal (strict policy or missed quorum).
func (p *PartialFailure) Error() string {
	if p == nil || len(p.Failed) == 0 {
		return "federation: no node failures"
	}
	var b bytes.Buffer
	b.WriteString("federation: ")
	if p.QueryID != "" {
		fmt.Fprintf(&b, "query %s: ", p.QueryID)
	}
	fmt.Fprintf(&b, "%d node(s) failed:", len(p.Failed))
	for _, nf := range p.Failed {
		fmt.Fprintf(&b, " [%s]", nf.String())
	}
	return b.String()
}

// Nodes lists the lost legs' NodeFailure.Node values, in leg order.
func (p *PartialFailure) Nodes() []string {
	if p == nil {
		return nil
	}
	out := make([]string, len(p.Failed))
	for i, nf := range p.Failed {
		out[i] = nf.Node
	}
	return out
}

// Policy configures degraded-mode federation.
type Policy struct {
	// AllowPartial returns merged results from the legs that answered when
	// some are lost, instead of aborting the whole query.
	AllowPartial bool
	// Quorum is the minimum number of legs that must answer for a partial
	// result to stand; <= 0 means 1.
	Quorum int
	// Deadline bounds the whole query (all legs, all chunks); 0 means the
	// caller's context alone governs.
	Deadline time.Duration
}

func (p Policy) quorum() int {
	if p.Quorum > 0 {
		return p.Quorum
	}
	return 1
}

// Federator coordinates a query across several nodes: it ships the script
// to one member of every leg, executes locally there, pulls only results,
// and merges them into one dataset (sample union). This is the
// query-shipping architecture of Section 4.4. Legs run concurrently; the
// Policy decides whether a lost leg aborts the query or degrades it.
type Federator struct {
	Clients []*Client
	Policy  Policy
	// Queries is the registry federated queries register in for the
	// /debug/queries console; nil means the process-wide obs.Queries().
	Queries *obs.QueryRegistry

	// Placement decides the query's legs: data units registered on R
	// members collapse into replica groups, and the query runs one leg per
	// group, served by any one replica, with failover to the survivors when
	// a member dies mid-query. Nil means one singleton group per member:
	// every member holds its own samples and is its own leg. The merge
	// collapses a repeated sample ID only between legs whose groups are
	// connected by shared members (see mergeLegs), so replicas never
	// double-count and distinct samples that share an ID are both kept.
	Placement *Placement
	// Prober, when non-nil, supplies member health for replica ordering:
	// legs try up members before suspect ones before down ones. Nil treats
	// every replica alike.
	Prober *Prober
	// Hedge configures hedged requests within a replica group.
	Hedge HedgePolicy

	// hedgeWin tracks recent leg latencies for the adaptive hedge delay.
	hedgeWin latencyWindow
}

// queries resolves the console registry.
func (f *Federator) queries() *obs.QueryRegistry {
	if f.Queries != nil {
		return f.Queries
	}
	return obs.Queries()
}

// BytesMoved totals payload traffic across all member clients.
func (f *Federator) BytesMoved() int64 {
	var total int64
	for _, c := range f.Clients {
		total += c.Bytes()
	}
	return total
}

// Query runs the script on every leg concurrently and merges the results
// (sample union, in leg order).
//
// Under the default strict policy a lost leg aborts the query: the merged
// dataset is nil and the error carries the failure report. With
// Policy.AllowPartial, the answering legs' results are merged and returned
// together with a PartialFailure naming exactly the legs that were lost
// (nil when every leg answered); the query only errors when fewer than
// Policy.Quorum legs succeed.
//
// Every federated query gets a QueryID (reused from the context when
// obs.WithQueryID set one), propagated to members as X-Query-ID and
// registered in the query console; QueryProfiled additionally records the
// merged cross-node span tree.
func (f *Federator) Query(ctx context.Context, script, varName string, chunkSize int) (*gdm.Dataset, *PartialFailure, error) {
	ds, _, report, err := f.run(ctx, script, varName, chunkSize, false)
	return ds, report, err
}

// QueryNaive is the baseline architecture: download every input dataset the
// script references from one member of every leg and evaluate locally. It
// moves the full inputs over the network instead of the results. The leg
// results merge under the same rule as Query's (mergeLegs), so the two
// architectures answer alike.
func (f *Federator) QueryNaive(ctx context.Context, script, varName string, datasets []string, cfg engine.Config) (*gdm.Dataset, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	groups, err := f.legGroups()
	if err != nil {
		return nil, err
	}
	prog, err := gmql.Parse(script)
	if err != nil {
		return nil, err
	}
	parts := make([]*gdm.Dataset, len(groups))
	for i, g := range groups {
		c := f.Clients[g.Members[0]]
		cat := engine.MapCatalog{}
		for _, name := range datasets {
			ds, err := c.DownloadDataset(ctx, name)
			if err != nil {
				return nil, err
			}
			cat[name] = ds
		}
		if parts[i], err = (&gmql.Runner{Config: cfg, Catalog: cat}).Eval(prog, varName); err != nil {
			return nil, err
		}
	}
	merged, _, err := mergeLegs(cfg, groups, parts)
	return merged, err
}
