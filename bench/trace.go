package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share OpID; Parent is the index of the span that caused this one, -1 for a
// root. Start and End are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, OpID: op})
	return len(t.spans) - 1
}

// end closes a span now.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// time records fn as a span and returns its duration.
func (t *tracer) time(name string, parent, op int, fn func()) time.Duration {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
	return t.get(id).dur()
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// endAtLastChild closes a span at the moment its last child ended: a leg is
// over when the last response of its member has been read.
func (t *tracer) endAtLastChild(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Parent == id && s.End > t.spans[id].End {
			t.spans[id].End = s.End
		}
	}
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children may overlap each other (parallel
// legs) and are clipped to the parent's interval.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, c := range ch {
			lo, hi := spans[c].Start, spans[c].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores the trace, each span with its self time, as JSON.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	self := selfTimes(spans)
	type row struct {
		span
		Self int64 `json:"self"`
	}
	rows := make([]row, len(spans))
	for i := range spans {
		rows[i] = row{spans[i], int64(self[i])}
	}
	data, err := json.Marshal(struct {
		Unit  string `json:"unit"`
		Spans []row  `json:"spans"`
	}{"ns", rows})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spanHeader carries the client-side request span to the in-process server,
// so the handler span it records names the request that caused it.
const spanHeader = "X-Bench-Span"

// tracedTransport records one span per HTTP request of one member's client:
// from the request leaving to its response body being closed. parent yields
// the span the request belongs under and the op it is part of.
type tracedTransport struct {
	tr     *tracer
	base   http.RoundTripper
	parent func() (parent, op int)
}

func requestName(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/query":
		return "http.query"
	case r.Method == http.MethodDelete:
		return "http.release"
	default:
		return "http.results"
	}
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent, op := t.parent()
	id := t.tr.begin(requestName(r), parent, op)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.tr.end(id) }}
	return resp, nil
}

// spanBody ends the request span when the client has finished the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// tracedHandler records the wall time the in-process server's handler spends
// on each federation route, as a child of the request span named in the
// header.
func tracedHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		name := "federation.server_results"
		if r.URL.Path == "/query" {
			name = "federation.server_query"
		}
		id := tr.begin(name, parent, tr.get(parent).OpID)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}
