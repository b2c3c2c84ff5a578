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

func newTestProfiler(ringCap int) *Profiler {
	p := &Profiler{MinGap: -1} // MinGap set pre-Enable so Enable keeps it
	p.Enable(ringCap)
	p.MinGap = 0 // no rate limit in tests
	return p
}

func TestProfilerDisabledIsFree(t *testing.T) {
	var p Profiler
	p.Trigger("slow_query", "q1") // must not capture or panic
	if got := p.ListCaptures(); len(got) != 0 {
		t.Fatalf("disabled profiler captured %d profiles", len(got))
	}
	var nilP *Profiler
	nilP.Trigger("slow_query", "q1")
	if nilP.Enabled() {
		t.Fatal("nil profiler reports enabled")
	}
}

func TestProfilerTriggerCapturesHeap(t *testing.T) {
	p := newTestProfiler(4)
	p.Trigger("slow_query", "q-123")
	caps := p.ListCaptures()
	if len(caps) != 1 {
		t.Fatalf("captures = %d, want 1", len(caps))
	}
	c := caps[0]
	if c.Kind != "heap" || c.Trigger != "slow_query" || c.QueryID != "q-123" {
		t.Errorf("capture meta = %+v", c)
	}
	if c.Bytes <= 0 {
		t.Errorf("capture is empty")
	}
	meta, data, ok := p.Get(c.ID)
	if !ok || len(data) != meta.Bytes || len(data) == 0 {
		t.Fatalf("Get(%d) = %+v, %d bytes, %v", c.ID, meta, len(data), ok)
	}
	// pprof heap profiles are gzipped protobuf: 0x1f 0x8b magic.
	if data[0] != 0x1f || data[1] != 0x8b {
		t.Errorf("capture does not look like a gzipped pprof profile: % x", data[:2])
	}
}

func TestProfilerRingEvictsOldest(t *testing.T) {
	p := newTestProfiler(3)
	for i := 0; i < 5; i++ {
		p.Trigger("slow_query", "")
	}
	caps := p.ListCaptures()
	if len(caps) != 3 {
		t.Fatalf("ring holds %d, want 3", len(caps))
	}
	// Newest first: IDs 5,4,3; 1 and 2 evicted.
	if caps[0].ID != 5 || caps[2].ID != 3 {
		t.Errorf("ring ids = %d..%d, want 5..3", caps[0].ID, caps[2].ID)
	}
	if _, _, ok := p.Get(1); ok {
		t.Errorf("evicted capture 1 still retrievable")
	}
}

func TestProfilerMinGapSuppresses(t *testing.T) {
	p := &Profiler{}
	p.Enable(8) // default MinGap 10s
	p.Trigger("slow_query", "a")
	p.Trigger("slow_query", "b")
	if got := len(p.ListCaptures()); got != 1 {
		t.Fatalf("rate-limited profiler captured %d, want 1", got)
	}
}

// TestProfilerPerTriggerGap: the gap is kept per trigger, so a slow-query
// capture does not suppress a budget kill's that follows it.
func TestProfilerPerTriggerGap(t *testing.T) {
	p := &Profiler{}
	p.Enable(8) // default MinGap 10s
	p.Trigger("slow_query", "a")
	p.Trigger("budget_kill", "b")
	p.Trigger("budget_kill", "c")
	got := map[string]string{}
	for _, c := range p.ListCaptures() {
		got[c.Trigger] += c.QueryID
	}
	if len(got) != 2 || got["slow_query"] != "a" || got["budget_kill"] != "b" {
		t.Errorf("captures by trigger = %v, want slow_query a and budget_kill b", got)
	}
}

func TestProfilerCPUCapture(t *testing.T) {
	p := newTestProfiler(4)
	p.CPUWindow = 20 * time.Millisecond
	p.Trigger("budget_kill", "q-9")
	deadline := time.Now().Add(5 * time.Second)
	for {
		var cpu *Capture
		for _, c := range p.ListCaptures() {
			if c.Kind == "cpu" {
				cc := c
				cpu = &cc
				break
			}
		}
		if cpu != nil {
			if cpu.Trigger != "budget_kill" || cpu.WindowMS != 20 || cpu.Bytes <= 0 {
				t.Errorf("cpu capture = %+v", *cpu)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cpu capture never landed in the ring")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestProfilerStartSamplesOnInterval(t *testing.T) {
	p := newTestProfiler(8)
	stop := p.Start(10 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if caps := p.ListCaptures(); len(caps) >= 2 {
			if caps[0].Trigger != "interval" {
				t.Errorf("trigger = %q, want interval", caps[0].Trigger)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("interval sampler produced no captures")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestProfilerConcurrentTriggerAndList(t *testing.T) {
	p := newTestProfiler(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g%2 == 0 {
					p.Trigger("slow_query", "q")
				} else {
					for _, c := range p.ListCaptures() {
						p.Get(c.ID)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMountProf(t *testing.T) {
	p := newTestProfiler(4)
	p.Trigger("slow_query", "q-777")
	mux := http.NewServeMux()
	NewConsole(mux).Register(p.View())
	mux.Handle("/debug/prof/", p.Download())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/prof")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("list content-type = %q", ct)
	}
	var listing struct {
		Enabled  bool      `json:"enabled"`
		Captures []Capture `json:"captures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if !listing.Enabled || len(listing.Captures) != 1 || listing.Captures[0].QueryID != "q-777" {
		t.Fatalf("listing = %+v", listing)
	}

	dl, err := http.Get(srv.URL + "/debug/prof/1")
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Body.Close()
	if dl.StatusCode != http.StatusOK {
		t.Fatalf("download status = %d", dl.StatusCode)
	}
	if ct := dl.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("download content-type = %q", ct)
	}
	if cd := dl.Header.Get("Content-Disposition"); !strings.Contains(cd, "heap-1.pprof") {
		t.Errorf("content-disposition = %q", cd)
	}

	if resp, _ := http.Get(srv.URL + "/debug/prof/999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing capture status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Get(srv.URL + "/debug/prof/xyz"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status = %d, want 400", resp.StatusCode)
	}
}

func TestSlowlogTriggersProfiler(t *testing.T) {
	p := newTestProfiler(8)
	l := &SlowQueryLog{Threshold: time.Millisecond, Profiler: p, Logger: newTextLogger(io.Discard)}

	root := NewSpan("MAP")
	root.DurationNS = int64(5 * time.Millisecond)
	l.ObserveQuery("q-slow", "SLOW = ...", root)

	l.ObserveKilled("q-budget", "BIG = ...", "killed", "budget", time.Second)
	l.ObserveKilled("q-shed", "SHED = ...", string(StatusShed), "queue full", 0)
	l.ObserveKilled("q-cancel", "C = ...", "canceled", "canceled", 0) // no trigger

	byQuery := map[string]string{}
	for _, c := range p.ListCaptures() {
		byQuery[c.QueryID] = c.Trigger
	}
	want := map[string]string{"q-slow": "slow_query", "q-budget": "budget_kill", "q-shed": "shed"}
	for q, trig := range want {
		if byQuery[q] != trig {
			t.Errorf("capture for %s = %q, want %q", q, byQuery[q], trig)
		}
	}
	if _, ok := byQuery["q-cancel"]; ok {
		t.Errorf("canceled query triggered a capture")
	}
}
