package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceNewQueryIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewQueryID()
		if !strings.HasPrefix(id, "q") {
			t.Fatalf("id %q lacks the q prefix", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestTraceQueryIDContext(t *testing.T) {
	if got := QueryIDFrom(nil); got != "" {
		t.Errorf("QueryIDFrom(nil) = %q", got)
	}
	ctx, id := EnsureQueryID(nil)
	if id == "" || QueryIDFrom(ctx) != id {
		t.Fatalf("EnsureQueryID minted %q, context carries %q", id, QueryIDFrom(ctx))
	}
	// A context that already has an identity keeps it.
	ctx2, id2 := EnsureQueryID(ctx)
	if id2 != id {
		t.Errorf("EnsureQueryID replaced %q with %q", id, id2)
	}
	if QueryIDFrom(ctx2) != id {
		t.Errorf("context lost the identity")
	}
}

func TestTraceSpanContext(t *testing.T) {
	if sp := SpanFrom(nil); sp != nil {
		t.Errorf("SpanFrom(nil) = %v", sp)
	}
	ctx, _ := EnsureQueryID(nil)
	if sp := SpanFrom(ctx); sp != nil {
		t.Errorf("span from span-less context = %v", sp)
	}
	root := NewSpan("ROOT")
	if got := SpanFrom(WithSpan(ctx, root)); got != root {
		t.Errorf("SpanFrom returned %v, want the attached span", got)
	}
	// WithSpan(nil) is a no-op, not a nil overwrite.
	withNil := WithSpan(WithSpan(ctx, root), nil)
	if got := SpanFrom(withNil); got != root {
		t.Errorf("WithSpan(nil) clobbered the span: %v", got)
	}
}

// TestTraceSnapshotWhileMutating hammers one span tree with concurrent
// setters while snapshotting and rendering it; run with -race this is the
// console's "profile a live query" guarantee.
func TestTraceSnapshotWhileMutating(t *testing.T) {
	root := NewSpan("ROOT")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := NewSpan("CHILD")
			c.Detail = "CHILD"
			root.AddChild(c)
			c.SetOutput(i, 2*i)
			c.SetAttr("attempts", "2")
			c.Finish(start)
			root.SetOutput(i, i)
			root.SetWorkers(i%8 + 1)
		}
	}()
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		snap := root.Snapshot()
		_ = snap.Render()
		_ = snap.Flatten()
		if _, err := json.Marshal(snap); err != nil {
			t.Fatalf("marshal: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestTraceRenderAttrsAndRemote(t *testing.T) {
	sp := NewSpan("MEMBER")
	sp.Detail = "MEMBER 1 node1"
	sp.Mode = "fed"
	sp.SetAttr("breaker", "closed")
	sp.SetAttr("attempts", "3")
	child := NewSpan("SCAN")
	child.Detail = "SCAN ENCODE"
	child.Mode = "serial"
	child.MarkRemote()
	sp.AddChild(child)
	sp.SetOutput(4, 40)
	got := sp.Render()
	want := "MEMBER 1 node1  [fed attempts=3 breaker=closed] time=0.0ms out=4s/40r\n" +
		"  SCAN ENCODE  [serial remote] time=0.0ms out=0s/0r\n"
	if got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestTraceMarkRemoteRecursive(t *testing.T) {
	root := NewSpan("A")
	kid := NewSpan("B")
	grand := NewSpan("C")
	kid.AddChild(grand)
	root.AddChild(kid)
	root.MarkRemote()
	for _, sp := range root.Flatten() {
		if !sp.Remote {
			t.Errorf("span %s not marked remote", sp.Op)
		}
	}
}

func TestConsoleRegistryLifecycle(t *testing.T) {
	q := NewQueryRegistry(4)
	e := q.Begin("q1", "node", "X", "X = SELECT() D; MATERIALIZE X;")
	if e.Status() != StatusRunning {
		t.Fatalf("status = %s", e.Status())
	}
	if len(q.Active()) != 1 || q.Active()[0] != e {
		t.Fatalf("active = %v", q.Active())
	}
	if got := q.Get("q1"); got != e {
		t.Fatalf("Get = %v", got)
	}
	if e.Digest != ScriptDigest("X = SELECT() D; MATERIALIZE X;") || len(e.Digest) != 12 {
		t.Errorf("digest = %q", e.Digest)
	}
	q.Finish(e, StatusDone, "")
	if len(q.Active()) != 0 {
		t.Errorf("finished query still active")
	}
	if rec := q.Recent(); len(rec) != 1 || rec[0] != e {
		t.Errorf("recent = %v", rec)
	}
	if got := q.Get("q1"); got != e {
		t.Errorf("Get after finish = %v", got)
	}
	if e.Status() != StatusDone || e.Err() != "" {
		t.Errorf("status=%s err=%q", e.Status(), e.Err())
	}
	took := e.Took()
	time.Sleep(time.Millisecond)
	if e.Took() != took {
		t.Errorf("Took of a finished query still advances")
	}
}

func TestConsoleRingEviction(t *testing.T) {
	q := NewQueryRegistry(2)
	for _, id := range []string{"q1", "q2", "q3"} {
		q.Finish(q.Begin(id, "n", "X", "s"), StatusDone, "")
	}
	rec := q.Recent()
	if len(rec) != 2 {
		t.Fatalf("ring holds %d, want 2", len(rec))
	}
	for _, e := range rec {
		if e.ID == "q1" {
			t.Errorf("oldest entry survived eviction")
		}
	}
	if q.Get("q1") != nil {
		t.Errorf("evicted entry still findable")
	}
}

func TestConsoleNilRegistrySafe(t *testing.T) {
	var q *QueryRegistry
	e := q.Begin("q1", "n", "X", "s")
	if e != nil {
		t.Fatalf("nil registry returned an entry")
	}
	// Every entry method must receive nil safely.
	e.SetRoot(NewSpan("A"))
	e.SetParentSpan("p")
	e.InitMembers([]string{"a"})
	e.SetMember(0, MemberState{})
	_ = e.Members()
	_ = e.Status()
	_ = e.Err()
	_ = e.Took()
	_ = e.Root()
	_ = e.ParentSpan()
	q.Finish(e, StatusDone, "")
	if q.Active() != nil || q.Recent() != nil || q.Get("q1") != nil {
		t.Errorf("nil registry lists entries")
	}
}

func TestConsoleEntryProgress(t *testing.T) {
	q := NewQueryRegistry(4)
	e := q.Begin("q1", "n", "X", "s")
	root := NewSpan("SELECT")
	kid := NewSpan("SCAN")
	kid.SetOutput(3, 30)
	kid.Finish(time.Now().Add(-time.Millisecond)) // finished: nonzero duration
	root.AddChild(kid)
	e.SetRoot(root)
	p := e.Progress()
	if p.SpansSeen != 2 || p.SpansDone != 1 {
		t.Errorf("progress = %+v", p)
	}
	if p.SamplesOut != 3 || p.RegionsOut != 30 {
		t.Errorf("volumes = %+v", p)
	}
}

func TestConsoleHandlerListJSON(t *testing.T) {
	q := NewQueryRegistry(4)
	running := q.Begin("q-live", "node1", "X", "script")
	running.InitMembers([]string{"a", "b"})
	done := q.Begin("q-done", "node1", "Y", "script")
	q.Finish(done, StatusPartial, "")
	ts := consoleServer(t, q.View())

	resp, err := http.Get(ts.URL + "/debug/queries?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Active []struct {
			ID      string        `json:"id"`
			Status  QueryStatus   `json:"status"`
			Members []MemberState `json:"members"`
		} `json:"active"`
		Recent []struct {
			ID     string      `json:"id"`
			Status QueryStatus `json:"status"`
		} `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Active) != 1 || out.Active[0].ID != "q-live" || out.Active[0].Status != StatusRunning {
		t.Errorf("active = %+v", out.Active)
	}
	if len(out.Active) == 1 && len(out.Active[0].Members) != 2 {
		t.Errorf("members = %+v", out.Active[0].Members)
	}
	if len(out.Recent) != 1 || out.Recent[0].ID != "q-done" || out.Recent[0].Status != StatusPartial {
		t.Errorf("recent = %+v", out.Recent)
	}
}

func TestConsoleHandlerDrilldown(t *testing.T) {
	q := NewQueryRegistry(4)
	e := q.Begin("q-prof", "node1", "X", "script")
	root := NewSpan("SELECT")
	root.Detail = "SELECT region > 5"
	root.Mode = "serial"
	root.SetOutput(2, 20)
	e.SetRoot(root)
	q.Finish(e, StatusDone, "")
	ts := consoleServer(t, q.View())

	resp, err := http.Get(ts.URL + "/debug/queries/q-prof?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID       string `json:"id"`
		Profile  *Span  `json:"profile"`
		Rendered string `json:"rendered"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID != "q-prof" || out.Profile == nil || out.Profile.Op != "SELECT" {
		t.Errorf("drill-down = %+v", out)
	}
	if !strings.Contains(out.Rendered, "SELECT region > 5") {
		t.Errorf("rendered = %q", out.Rendered)
	}

	// Unknown id is a 404, not an empty page.
	r404, err := http.Get(ts.URL + "/debug/queries/nope")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status = %d", r404.StatusCode)
	}
}

func TestConsoleHandlerHTML(t *testing.T) {
	q := NewQueryRegistry(4)
	e := q.Begin("q-html", "node<1>", "X", "script")
	q.Finish(e, StatusFailed, "boom <tag>")
	ts := consoleServer(t, q.View())

	for _, path := range []string{"/debug/queries", "/debug/queries/q-html"} {
		body, ct := getAccept(t, ts.URL+path, "text/html")
		if !strings.HasPrefix(ct, "text/html") {
			t.Errorf("%s content type = %q", path, ct)
		}
		for _, want := range []string{"q-html", "node&lt;1&gt;", "boom &lt;tag&gt;", "failed"} {
			if !strings.Contains(body, want) {
				t.Errorf("%s missing %q", path, want)
			}
		}
		if strings.Contains(body, "node<1>") || strings.Contains(body, "<tag>") {
			t.Errorf("%s leaks unescaped HTML", path)
		}
	}
	// The list links each row to its drill-down.
	if body, _ := getAccept(t, ts.URL+"/debug/queries", "text/html"); !strings.Contains(body, `href="/debug/queries/q-html"`) {
		t.Errorf("list does not link the drill-down:\n%s", body)
	}
}

func TestConsoleMountServesRegistry(t *testing.T) {
	mux := http.NewServeMux()
	Mount(NewConsole(mux), Default())
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/queries?format=json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("console status = %d", resp.StatusCode)
	}
}

// consoleServer serves views on a fresh console.
func consoleServer(t *testing.T, views ...View) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	c := NewConsole(mux)
	for _, v := range views {
		c.Register(v)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// getAccept GETs url with an Accept header, returning body and content type.
func getAccept(t *testing.T, url, accept string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return readAllString(t, resp), resp.Header.Get("Content-Type")
}

func readAllString(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
