package federation

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"genogo/internal/engine"
	"genogo/internal/formats"
	"genogo/internal/synth"
)

// flaky wraps a handler, forcing the first n requests per path prefix to
// fail with the given status or corrupted payloads.
type flaky struct {
	inner   http.Handler
	mode    string // "status", "truncate", "garbage"
	trigger string // path prefix to sabotage
	count   int32  // how many times to sabotage
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, f.trigger) && atomic.AddInt32(&f.count, -1) >= 0 {
		switch f.mode {
		case "status":
			http.Error(w, "injected failure", http.StatusInternalServerError)
		case "garbage":
			w.Header().Set("Content-Type", formats.FrameContentType)
			_, _ = w.Write([]byte("NOT A DATASET AT ALL\n"))
		case "truncate":
			rec := httptest.NewRecorder()
			f.inner.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			_, _ = w.Write(body[:len(body)/2])
		}
		return
	}
	f.inner.ServeHTTP(w, r)
}

func flakyNode(t *testing.T, mode, trigger string, times int32) *httptest.Server {
	t.Helper()
	g := synth.New(77)
	srv := NewServer("n", engine.Config{Mode: engine.ModeSerial},
		g.Encode(synth.EncodeOptions{Samples: 6, MeanPeaks: 10}))
	ts := httptest.NewServer(&flaky{inner: srv.Handler(), mode: mode, trigger: trigger, count: times})
	t.Cleanup(ts.Close)
	return ts
}

func TestClientSurvivesServerErrorStatuses(t *testing.T) {
	ts := flakyNode(t, "status", "/datasets", 1)
	c := NewClient(ts.URL)
	if _, err := c.ListDatasets(context.Background()); err == nil {
		t.Fatal("injected 500 not surfaced")
	}
	// The failure was transient; the next call succeeds.
	infos, err := c.ListDatasets(context.Background())
	if err != nil || len(infos) != 1 {
		t.Fatalf("recovery failed: %v %v", infos, err)
	}
}

func TestClientRejectsGarbagePayload(t *testing.T) {
	ts := flakyNode(t, "garbage", "/results/", 1)
	c := NewClient(ts.URL)
	qr, err := c.Execute(context.Background(), `X = SELECT() ENCODE; MATERIALIZE X;`, "X")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FetchChunk(context.Background(), qr.ResultID, 0, 10); err == nil {
		t.Fatal("garbage payload decoded")
	}
	// Retry succeeds once the sabotage budget is spent.
	if _, _, err := c.FetchChunk(context.Background(), qr.ResultID, 0, 10); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
}

func TestClientRejectsTruncatedPayload(t *testing.T) {
	ts := flakyNode(t, "truncate", "/results/", 1)
	c := NewClient(ts.URL)
	qr, err := c.Execute(context.Background(), `X = SELECT() ENCODE; MATERIALIZE X;`, "X")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FetchChunk(context.Background(), qr.ResultID, 0, 100); err == nil {
		t.Fatal("truncated payload decoded")
	}
}

func TestFederatorAbortsOnMemberFailure(t *testing.T) {
	good := flakyNode(t, "status", "/never", 0)
	bad := flakyNode(t, "status", "/query", 99)
	fed := &Federator{Clients: []*Client{NewClient(good.URL), NewClient(bad.URL)}}
	if _, _, err := fed.Query(context.Background(), `X = SELECT() ENCODE; MATERIALIZE X;`, "X", 4); err == nil {
		t.Fatal("member failure swallowed")
	}
}

func TestClientUnreachableHost(t *testing.T) {
	c := NewClient("http://127.0.0.1:1")
	if _, err := c.ListDatasets(context.Background()); err == nil {
		t.Error("unreachable list succeeded")
	}
	if _, err := c.Execute(context.Background(), "X = SELECT() A; MATERIALIZE X;", "X"); err == nil {
		t.Error("unreachable execute succeeded")
	}
	if _, err := c.DownloadDataset(context.Background(), "A"); err == nil {
		t.Error("unreachable download succeeded")
	}
	if err := c.Release(context.Background(), "r1"); err == nil {
		t.Error("unreachable release succeeded")
	}
	if _, _, err := c.FetchChunk(context.Background(), "r1", 0, 1); err == nil {
		t.Error("unreachable fetch succeeded")
	}
}
