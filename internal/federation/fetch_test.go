package federation

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genogo/internal/engine"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
	"genogo/internal/obs"
	"genogo/internal/resilience"
	"genogo/internal/synth"
)

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// chunkStart is the start of a GET /results request, -1 for other requests.
func chunkStart(r *http.Request) int {
	if r.Method != http.MethodGet {
		return -1
	}
	n, err := strconv.Atoi(r.URL.Query().Get("start"))
	if err != nil {
		return -1
	}
	return n
}

// settledGoroutines waits until the goroutine count is back at most at want,
// and reports the last count seen. Connections the client keeps idle are
// closed first: their reader and writer goroutines are not leaks.
func settledGoroutines(c *Client, want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.HTTP.CloseIdleConnections()
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pipelineNode stages a 10-sample result on a fresh node and returns a client
// whose transport is rt, the result ID and the goroutine baseline, taken after
// one full fetch over the same client.
func pipelineNode(t *testing.T, rt http.RoundTripper) (*Server, *Client, string, int) {
	t.Helper()
	srv, ts := newNode(t, "node1", 4, 10)
	c := NewClient(ts.URL, WithTransport(rt))
	qr, err := c.Execute(context.Background(), chaosScript, "X")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Samples != 10 {
		t.Fatalf("staged %d samples, want 10", qr.Samples)
	}
	if _, err := c.FetchAll(context.Background(), qr.ResultID, 3); err != nil {
		t.Fatal(err)
	}
	// The baseline is the count once closing the idle connections has
	// stopped lowering it.
	baseline := runtime.NumGoroutine()
	for range 50 {
		time.Sleep(20 * time.Millisecond)
		n := settledGoroutines(c, baseline)
		if n >= baseline {
			break
		}
		baseline = n
	}
	return srv, c, qr.ResultID, baseline
}

// TestFetchAllPipelinedNextChunkFails: the request for chunk k+1 goes out
// while chunk k decodes; when it fails, FetchAll returns the error and no
// dataset, and leaves no goroutine behind.
func TestFetchAllPipelinedNextChunkFails(t *testing.T) {
	var failing atomic.Bool
	chaos := &resilience.ChaosTransport{ErrorRate: 1}
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if failing.Load() && chunkStart(r) == 6 {
			return chaos.RoundTrip(r)
		}
		return http.DefaultTransport.RoundTrip(r)
	})
	_, c, id, baseline := pipelineNode(t, rt)
	failing.Store(true)
	ds, err := c.FetchAll(context.Background(), id, 3)
	var serr *resilience.StatusError
	if ds != nil || !errors.As(err, &serr) || serr.Code != http.StatusServiceUnavailable {
		t.Fatalf("FetchAll with chunk [6,9) failing: dataset %v, error %v; want the 503 and no dataset", ds != nil, err)
	}
	if chaos.Faults() != 1 {
		t.Errorf("injected %d faults, want 1", chaos.Faults())
	}
	if n := settledGoroutines(c, baseline); n > baseline {
		t.Errorf("%d goroutines after the failed fetch, baseline %d", n, baseline)
	}
}

// TestFetchAllPipelinedCancelsInFlight: when chunk k fails to decode, the
// request for chunk k+1 is already in flight. FetchAll cancels it and waits
// for it before returning the typed integrity error.
func TestFetchAllPipelinedCancelsInFlight(t *testing.T) {
	var corrupt atomic.Bool
	var issued, cancelled atomic.Int32
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		start := chunkStart(r)
		if !corrupt.Load() || start < 0 {
			return http.DefaultTransport.RoundTrip(r)
		}
		if start == 3 {
			// Chunk k+1 hangs until the fetch gives up on it.
			issued.Add(1)
			<-r.Context().Done()
			cancelled.Add(1)
			return nil, r.Context().Err()
		}
		resp, err := http.DefaultTransport.RoundTrip(r)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		body[len(body)/2] ^= 0x10
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return resp, nil
	})
	_, c, id, baseline := pipelineNode(t, rt)
	corrupt.Store(true)
	done := make(chan struct{})
	var ds *gdm.Dataset
	var err error
	go func() {
		defer close(done)
		ds, err = c.FetchAll(context.Background(), id, 3)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("FetchAll did not return: the in-flight chunk request was never cancelled")
	}
	var ie *formats.IntegrityError
	if ds != nil || !errors.As(err, &ie) {
		t.Fatalf("FetchAll of a damaged chunk: dataset %v, error %v; want a typed IntegrityError and no dataset", ds, err)
	}
	if issued.Load() != 1 || cancelled.Load() != 1 {
		t.Errorf("next chunk issued %d times, cancelled %d times before FetchAll returned; want 1 and 1",
			issued.Load(), cancelled.Load())
	}
	if n := settledGoroutines(c, baseline); n > baseline {
		t.Errorf("%d goroutines after the failed fetch, baseline %d", n, baseline)
	}
}

// TestFetchAllPipelinedSpansInOrder: in a profiled federated query each
// member's CHUNK spans follow sample order, although a chunk's request goes
// out before the chunk ahead of it is decoded, and each carries its own
// retry attempts: here every chunk of the flaky member fails its first
// attempt once.
func TestFetchAllPipelinedSpansInOrder(t *testing.T) {
	const perNode = 9
	_, ts1 := chaosNode(t, 1, perNode)
	_, ts2 := chaosNode(t, 2, perNode)
	chaos := &resilience.ChaosTransport{ErrorRate: 1}
	var mu sync.Mutex
	failed := map[int]bool{}
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		start := chunkStart(r)
		mu.Lock()
		first := start >= 0 && !failed[start]
		failed[start] = true
		mu.Unlock()
		if first {
			return chaos.RoundTrip(r)
		}
		return http.DefaultTransport.RoundTrip(r)
	})
	flaky := NewClient(ts2.URL, WithTransport(rt), WithRetrier(&resilience.Retrier{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	}))
	fed := &Federator{Clients: []*Client{NewClient(ts1.URL), flaky}, Queries: obs.NewQueryRegistry(8)}
	ds, root, _, err := fed.QueryProfiled(context.Background(), chaosScript, "X", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != 2*perNode {
		t.Fatalf("merged %d samples, want %d", len(ds.Samples), 2*perNode)
	}
	var members []*obs.Span
	for _, sp := range root.Snapshot().Flatten() {
		if sp.Op == "FETCH" {
			members = append(members, sp)
		}
	}
	if len(members) != 2 {
		t.Fatalf("%d FETCH spans, want 2", len(members))
	}
	for i, fetch := range members {
		if len(fetch.Children) != 5 {
			t.Fatalf("member %d: %d CHUNK spans, want 5", i, len(fetch.Children))
		}
		for k, csp := range fetch.Children {
			want := fmt.Sprintf("[%d,%d)", 2*k, 2*k+2)
			if csp.Op != "CHUNK" || !strings.HasSuffix(csp.Detail, want) {
				t.Errorf("member %d chunk %d: %s %q, want CHUNK ...%s", i, k, csp.Op, csp.Detail, want)
			}
			wantAttempts := ""
			if i == 1 {
				wantAttempts = "2"
			}
			if a := csp.Attrs["attempts"]; a != wantAttempts {
				t.Errorf("member %d chunk %d: attempts %q, want %q", i, k, a, wantAttempts)
			}
			if wantOut := min(2, perNode-2*k); csp.SamplesOut != wantOut {
				t.Errorf("member %d chunk %d: %d samples out, want %d", i, k, csp.SamplesOut, wantOut)
			}
		}
	}
}

// TestStagedResultSurvivesSourceReplacement: a staged result is its own
// encoded frame, so re-registering the dataset it was computed from does not
// change what a later fetch returns.
func TestStagedResultSurvivesSourceReplacement(t *testing.T) {
	srv, ts := newNode(t, "node1", 4, 10)
	c := NewClient(ts.URL)
	prog, err := gmql.Parse(chaosScript)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&gmql.Runner{Config: engine.Config{Mode: engine.ModeSerial}, Catalog: requestCatalog{node: srv.cat}}).Eval(prog, "X")
	if err != nil {
		t.Fatal(err)
	}
	qr, err := c.Execute(context.Background(), chaosScript, "X")
	if err != nil {
		t.Fatal(err)
	}
	replacement := synth.New(5).Encode(synth.EncodeOptions{Samples: 4, MeanPeaks: 30})
	srv.AddDataset(replacement)
	got, err := c.FetchAll(context.Background(), qr.ResultID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := got.ContentDigest(), want.ContentDigest(); a != b {
		t.Errorf("fetched result digest %s, want %s as evaluated before the replacement", a, b)
	}
	if fresh, err := c.Execute(context.Background(), chaosScript, "X"); err != nil || fresh.Samples != len(replacement.Samples) {
		t.Errorf("a new query sees %d samples (%v), want the replacement's %d", fresh.Samples, err, len(replacement.Samples))
	}
}
