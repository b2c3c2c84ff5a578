package obs

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Continuous profiling: when a slow query, budget kill, or load shed shows up
// in the metrics, the question is always "what was the process doing *then*?"
// — and by the time anyone attaches to /debug/pprof the moment is gone. The
// Profiler keeps a bounded in-memory ring of recent pprof captures, written
// both on a timer (the continuous part) and at the exact moment something
// goes wrong (slow-query, budget-kill, and shed events trigger a capture),
// so the evidence is already on the server when the operator arrives.
// /debug/prof lists the ring and serves each capture for `go tool pprof`.
//
// Heap captures are synchronous (pprof.Lookup("heap") is a quick snapshot).
// CPU captures need a sampling window and the runtime allows only one CPU
// profile process-wide, so they run on a background goroutine behind a busy
// guard; a trigger that arrives mid-window attaches to the running capture
// rather than failing. Event captures are rate-limited per trigger (MinGap)
// so a sustained overload — thousands of shed queries per second — produces a few
// captures, not a capture storm.

var (
	metricProfCaptures = Default().CounterVec("genogo_prof_captures_total",
		"Profiler captures taken, by kind (cpu, heap) and trigger.", "kind", "trigger")
	metricProfEvicted = Default().Counter("genogo_prof_evicted_total",
		"Profiler captures evicted from the ring to make room for newer ones.")
	metricProfSuppressed = Default().Counter("genogo_prof_suppressed_total",
		"Event-triggered captures suppressed by the MinGap rate limit.")
)

// Capture is one stored pprof profile. The pprof bytes are kept internal;
// ListCaptures returns metadata, Get returns the bytes for download.
type Capture struct {
	// ID is the download handle, monotonically increasing per profiler.
	ID int `json:"id"`
	// Kind is "heap" or "cpu".
	Kind string `json:"kind"`
	// Trigger says why the capture exists: "interval", "slow_query",
	// "budget_kill", "shed", or "manual".
	Trigger string `json:"trigger"`
	// QueryID is the query that tripped an event trigger, when known.
	QueryID string `json:"query_id,omitempty"`
	// Taken is when the capture completed.
	Taken time.Time `json:"taken"`
	// WindowMS is the sampling window for CPU captures (0 for heap).
	WindowMS int64 `json:"window_ms,omitempty"`
	// Bytes is the size of the stored profile.
	Bytes int `json:"bytes"`

	data []byte
}

// Profiler keeps the capture ring. The zero value is disabled: every method
// is safe to call and does nothing, so library code can trigger
// unconditionally and only binaries that opt in (gmqld -prof) pay anything.
type Profiler struct {
	// CPUWindow is the sampling window for CPU captures; <= 0 disables CPU
	// capture (heap-only profiling).
	CPUWindow time.Duration
	// MinGap is the minimum spacing between two event-triggered captures of
	// the same trigger; a capture of one trigger never suppresses another's.
	MinGap time.Duration

	mu       sync.Mutex
	enabled  bool
	ringCap  int
	ring     []*Capture
	nextID   int
	lastTrig map[string]time.Time // per trigger

	cpuBusy atomic.Bool
	stop    chan struct{}
}

// defaultProfiler is the process-wide profiler library code triggers against.
var defaultProfiler = &Profiler{}

// Prof returns the process-wide profiler. It stays disabled (and free) until
// a binary calls Enable.
func Prof() *Profiler { return defaultProfiler }

// Enable turns the profiler on with a ring of ringCap captures. Idempotent;
// ringCap < 1 keeps the previous (or a default 32-slot) ring.
func (p *Profiler) Enable(ringCap int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.enabled = true
	if ringCap >= 1 {
		p.ringCap = ringCap
	} else if p.ringCap == 0 {
		p.ringCap = 32
	}
	if p.MinGap == 0 {
		p.MinGap = 10 * time.Second
	}
}

// Enabled reports whether captures are being taken.
func (p *Profiler) Enabled() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.enabled
}

// Start launches the background sampler: one heap capture (plus a CPU window,
// if configured) every interval, keeping the ring fresh even when nothing is
// going wrong — the "what does normal look like" baseline regressions are
// compared against. Returns a stop function; Start on a disabled profiler is
// a no-op.
func (p *Profiler) Start(interval time.Duration) (stop func()) {
	if p == nil || !p.Enabled() || interval <= 0 {
		return func() {}
	}
	p.mu.Lock()
	if p.stop != nil {
		p.mu.Unlock()
		return func() {} // already running; owner stops it
	}
	ch := make(chan struct{})
	p.stop = ch
	p.mu.Unlock()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ch:
				return
			case <-t.C:
				p.captureHeap("interval", "")
				p.captureCPUAsync("interval", "")
			}
		}
	}()
	return func() {
		p.mu.Lock()
		if p.stop == ch {
			p.stop = nil
		}
		p.mu.Unlock()
		close(ch)
	}
}

// Trigger records an event-triggered capture: a synchronous heap snapshot and
// (when CPUWindow is set) an asynchronous CPU window, tagged with the trigger
// name and the query that tripped it. Rate-limited by MinGap per trigger; a
// disabled or nil profiler ignores the call, so triggering is free unless a
// binary opted in.
func (p *Profiler) Trigger(trigger, queryID string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.enabled {
		p.mu.Unlock()
		return
	}
	now := time.Now()
	if last, ok := p.lastTrig[trigger]; ok && p.MinGap > 0 && now.Sub(last) < p.MinGap {
		p.mu.Unlock()
		metricProfSuppressed.Inc()
		return
	}
	if p.lastTrig == nil {
		p.lastTrig = make(map[string]time.Time)
	}
	p.lastTrig[trigger] = now
	p.mu.Unlock()
	p.captureHeap(trigger, queryID)
	p.captureCPUAsync(trigger, queryID)
}

// captureHeap takes a synchronous heap snapshot into the ring.
func (p *Profiler) captureHeap(trigger, queryID string) {
	prof := pprof.Lookup("heap")
	if prof == nil {
		return
	}
	var buf bytes.Buffer
	if err := prof.WriteTo(&buf, 0); err != nil {
		return
	}
	p.store(&Capture{
		Kind: "heap", Trigger: trigger, QueryID: queryID,
		Taken: time.Now(), Bytes: buf.Len(), data: buf.Bytes(),
	})
	metricProfCaptures.With("heap", trigger).Inc()
}

// captureCPUAsync samples a CPU profile for CPUWindow on a fresh goroutine.
// The runtime allows one CPU profile per process, so a capture that finds the
// profiler busy returns immediately — the running window already covers the
// moment the trigger fired.
func (p *Profiler) captureCPUAsync(trigger, queryID string) {
	window := p.CPUWindow
	if window <= 0 {
		return
	}
	if !p.cpuBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer p.cpuBusy.Store(false)
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return // another CPU profile (e.g. /debug/pprof/profile) is active
		}
		time.Sleep(window)
		pprof.StopCPUProfile()
		p.store(&Capture{
			Kind: "cpu", Trigger: trigger, QueryID: queryID,
			Taken: time.Now(), WindowMS: window.Milliseconds(),
			Bytes: buf.Len(), data: buf.Bytes(),
		})
		metricProfCaptures.With("cpu", trigger).Inc()
	}()
}

// store appends a capture, evicting the oldest beyond the ring capacity.
func (p *Profiler) store(c *Capture) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.enabled {
		return
	}
	p.nextID++
	c.ID = p.nextID
	p.ring = append(p.ring, c)
	for len(p.ring) > p.ringCap {
		p.ring[0] = nil
		p.ring = p.ring[1:]
		metricProfEvicted.Inc()
	}
}

// ListCaptures returns the ring's metadata, newest first.
func (p *Profiler) ListCaptures() []Capture {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Capture, 0, len(p.ring))
	for _, c := range p.ring {
		cc := *c
		cc.data = nil
		out = append(out, cc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// Get returns one capture's metadata and pprof bytes by id.
func (p *Profiler) Get(id int) (Capture, []byte, bool) {
	if p == nil {
		return Capture{}, nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.ring {
		if c.ID == id {
			cc := *c
			cc.data = nil
			return cc, c.data, true
		}
	}
	return Capture{}, nil, false
}

// View lists the capture ring on /debug/prof: the enabled state and each
// capture's metadata.
func (p *Profiler) View() View {
	return View{
		Path: "/debug/prof",
		Desc: "continuous profiler capture ring: slow-query pprof captures for download",
		List: func() any {
			return map[string]any{"enabled": p.Enabled(), "captures": p.ListCaptures()}
		},
	}
}

// Download serves GET /debug/prof/{id}: one capture as a pprof protobuf
// ready for `go tool pprof`.
func (p *Profiler) Download() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		id, err := strconv.Atoi(strings.TrimPrefix(req.URL.Path, "/debug/prof/"))
		if err != nil {
			http.Error(w, "bad capture id", http.StatusBadRequest)
			return
		}
		meta, data, ok := p.Get(id)
		if !ok {
			http.Error(w, "no such capture (evicted?)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("%s-%d.pprof", meta.Kind, meta.ID)))
		_, _ = w.Write(data)
	})
}
