package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
)

// The debug console: every /debug endpoint is a View — a snapshot function
// plus an optional drill-down — registered on one listener's Console, which
// serves the snapshot as JSON, or through the one HTML renderer below when
// the Accept header lists text/html (what browsers send). The Console also
// owns the listener's /debug/ index, so the index lives exactly as long as
// the mux it is mounted on.

// endpoint is one row of the /debug/ index.
type endpoint struct {
	Path string `json:"path"`
	Desc string `json:"desc"`
}

// View is one debug endpoint: GET Path serves List(), and, when Drill is
// set, GET Path/{key} serves Drill(key) (404 when it reports false). On the
// HTML list page, each row of an array of objects links to its drill-down,
// keyed by its first column (a key that is already a path links as is).
type View struct {
	Path  string
	Desc  string
	List  func() any
	Drill func(key string) (any, bool)
}

// Console is the debug surface of one listener: its views and its index.
type Console struct {
	mux *http.ServeMux
	mu  sync.Mutex
	eps []endpoint
}

// NewConsole mounts the /debug/ index on mux and returns the console to
// register views on. A /debug path no view serves is a 404 there.
func NewConsole(mux *http.ServeMux) *Console {
	c := &Console{mux: mux}
	c.Register(View{
		Path: "/debug/",
		Desc: "this index: every debug endpoint mounted on this listener",
		List: func() any {
			c.mu.Lock()
			defer c.mu.Unlock()
			out := append([]endpoint(nil), c.eps...)
			sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
			return out
		},
		Drill: func(string) (any, bool) { return nil, false },
	})
	return c
}

// Register mounts v on the console's mux and lists it in the index.
func (c *Console) Register(v View) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		key := strings.Trim(strings.TrimPrefix(r.URL.Path, v.Path), "/")
		if key == "" {
			serveView(w, r, v, v.List(), v.Drill != nil)
			return
		}
		if v.Drill != nil {
			if val, ok := v.Drill(key); ok {
				serveView(w, r, v, val, false)
				return
			}
		}
		http.Error(w, fmt.Sprintf("%s has no entry %q; see /debug/ for the index", v.Path, key), http.StatusNotFound)
	})
	c.mux.Handle(v.Path, h)
	if v.Drill != nil && !strings.HasSuffix(v.Path, "/") {
		c.mux.Handle(v.Path+"/", h)
	}
	c.list(v.Path, v.Desc)
}

// list files a path in the index; Mount lists its plain handlers with it.
func (c *Console) list(path, desc string) {
	c.mu.Lock()
	c.eps = append(c.eps, endpoint{Path: path, Desc: desc})
	c.mu.Unlock()
}

// serveView writes val as JSON, or as an HTML page when the Accept header
// lists text/html and no ?format=json overrides it. links says whether the
// page links list rows to their drill-down.
func serveView(w http.ResponseWriter, r *http.Request, v View, val any, links bool) {
	if r.URL.Query().Get("format") == "json" || !acceptsHTML(r.Header.Get("Accept")) {
		writeJSON(w, val)
		return
	}
	raw, err := json.Marshal(val)
	var root *jsonNode
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		root, err = decodeNode(dec)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<!DOCTYPE html><html><head><title>%[1]s</title><style>
body{font-family:monospace;margin:2em}table{border-collapse:collapse}
td,th{border:1px solid #999;padding:2px 8px;text-align:left;vertical-align:top}
pre{background:#f4f4f4;padding:0.5em;margin:0}
</style></head><body><h1>%[1]s</h1><p>%[2]s</p>`, html.EscapeString(r.URL.Path), html.EscapeString(v.Desc))
	base := ""
	if links {
		base = strings.TrimSuffix(v.Path, "/") + "/"
	}
	root.render(&b, base)
	b.WriteString("</body></html>")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// acceptsHTML reports whether an Accept header lists text/html.
func acceptsHTML(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		if media, _, _ := strings.Cut(part, ";"); strings.TrimSpace(media) == "text/html" {
			return true
		}
	}
	return false
}

// writeJSON serves v as indented JSON: the one debug JSON writer.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// jsonNode is a decoded JSON value that keeps object keys in document
// order, so the page lists fields in the order the JSON does.
type jsonNode struct {
	delim json.Delim // '{' or '[' for containers, 0 for scalars
	text  string     // scalar text ("" for null)
	keys  []string   // object keys, parallel to items
	items []*jsonNode
}

func decodeNode(dec *json.Decoder) (*jsonNode, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	d, ok := tok.(json.Delim)
	if !ok {
		if tok == nil {
			return &jsonNode{}, nil
		}
		return &jsonNode{text: fmt.Sprint(tok)}, nil
	}
	n := &jsonNode{delim: d}
	for dec.More() {
		if d == '{' {
			if tok, err = dec.Token(); err != nil {
				return nil, err
			}
			n.keys = append(n.keys, tok.(string))
		}
		item, err := decodeNode(dec)
		if err != nil {
			return nil, err
		}
		n.items = append(n.items, item)
	}
	_, err = dec.Token() // the closing delimiter
	return n, err
}

// field returns an object's value for key, or nil.
func (n *jsonNode) field(key string) *jsonNode {
	for i, k := range n.keys {
		if k == key {
			return n.items[i]
		}
	}
	return nil
}

// render writes n as HTML: an object as key/value rows, an array of objects
// as one table whose columns are the union of the rows' keys (each row
// linked under base when base is set), any other array one item per line,
// and a multi-line string as <pre>.
func (n *jsonNode) render(b *strings.Builder, base string) {
	switch {
	case n.delim == '{':
		b.WriteString("<table>")
		for i, k := range n.keys {
			fmt.Fprintf(b, "<tr><th>%s</th><td>", html.EscapeString(k))
			n.items[i].render(b, base)
			b.WriteString("</td></tr>")
		}
		b.WriteString("</table>")
	case n.delim == '[' && len(n.items) == 0:
		b.WriteString("none")
	case n.delim == '[' && n.items[0].delim == '{':
		var cols []string
		for _, row := range n.items {
			for _, k := range row.keys {
				if !slices.Contains(cols, k) {
					cols = append(cols, k)
				}
			}
		}
		b.WriteString("<table><tr>")
		for _, c := range cols {
			fmt.Fprintf(b, "<th>%s</th>", html.EscapeString(c))
		}
		b.WriteString("</tr>")
		for _, row := range n.items {
			b.WriteString("<tr>")
			for i, c := range cols {
				b.WriteString("<td>")
				if v := row.field(c); v != nil && i == 0 && base != "" && v.delim == 0 {
					href := v.text
					if !strings.HasPrefix(href, "/") {
						href = base + url.PathEscape(v.text)
					}
					fmt.Fprintf(b, `<a href="%s">%s</a>`, html.EscapeString(href), html.EscapeString(v.text))
				} else if v != nil {
					v.render(b, "")
				}
				b.WriteString("</td>")
			}
			b.WriteString("</tr>")
		}
		b.WriteString("</table>")
	case n.delim == '[':
		for i, item := range n.items {
			if i > 0 {
				b.WriteString("<br>")
			}
			item.render(b, "")
		}
	case strings.Contains(n.text, "\n"):
		fmt.Fprintf(b, "<pre>%s</pre>", html.EscapeString(n.text))
	default:
		b.WriteString(html.EscapeString(n.text))
	}
}
