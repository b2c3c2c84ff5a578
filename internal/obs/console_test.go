package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

type testRow struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	Note  string `json:"note,omitempty"`
}

func testView() View {
	rows := []testRow{{Name: "a<b", Count: 1}, {Name: "c", Count: 2, Note: "two\nlines"}}
	return View{
		Path: "/debug/test",
		Desc: "test view",
		List: func() any {
			return struct {
				Rows  []testRow `json:"rows"`
				Empty []testRow `json:"empty"`
			}{rows, []testRow{}}
		},
		Drill: func(key string) (any, bool) {
			for _, r := range rows {
				if r.Name == key {
					return r, true
				}
			}
			return nil, false
		},
	}
}

func statusOf(t *testing.T, method, url string) int {
	t.Helper()
	req, _ := http.NewRequest(method, url, strings.NewReader("x"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestConsoleNegotiation: JSON by default and for ?format=json, HTML only
// when Accept lists text/html, 405 for non-GET, 404 for an unknown key.
func TestConsoleNegotiation(t *testing.T) {
	ts := consoleServer(t, testView(), View{Path: "/debug/flat", Desc: "no drill-down",
		List: func() any { return []int{1, 2} }})

	cases := []struct {
		path, accept, want string
	}{
		{"/debug/test", "", "application/json"},
		{"/debug/test", "application/json", "application/json"},
		{"/debug/test", "*/*", "application/json"},
		{"/debug/test", "text/html,application/xhtml+xml;q=0.9,*/*;q=0.8", "text/html; charset=utf-8"},
		{"/debug/test?format=json", "text/html", "application/json"},
		{"/debug/test/c", "", "application/json"},
		{"/debug/test/c", "text/html", "text/html; charset=utf-8"},
		{"/debug/flat", "", "application/json"},
		{"/debug/", "", "application/json"},
		{"/debug/", "text/html", "text/html; charset=utf-8"},
	}
	for _, c := range cases {
		if _, ct := getAccept(t, ts.URL+c.path, c.accept); ct != c.want {
			t.Errorf("GET %s (Accept %q): content type %q, want %q", c.path, c.accept, ct, c.want)
		}
	}
	var row testRow
	body, _ := getAccept(t, ts.URL+"/debug/test/c", "")
	if err := json.Unmarshal([]byte(body), &row); err != nil || row.Count != 2 {
		t.Errorf("drill-down JSON = %s (%v)", body, err)
	}
	for _, path := range []string{"/debug/test", "/debug/test/c", "/debug/flat", "/debug/"} {
		if got := statusOf(t, http.MethodPost, ts.URL+path); got != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, got)
		}
	}
	for _, path := range []string{"/debug/test/nope", "/debug/flat/x", "/debug/nope"} {
		if got := statusOf(t, http.MethodGet, ts.URL+path); got != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, got)
		}
	}
}

// TestConsoleRendersJSONAsTables: the one HTML renderer turns objects into
// key/value rows, arrays of objects into one table whose rows link to their
// drill-down, multi-line strings into <pre>, and escapes every value.
func TestConsoleRendersJSONAsTables(t *testing.T) {
	ts := consoleServer(t, testView())
	list, _ := getAccept(t, ts.URL+"/debug/test", "text/html")
	for _, want := range []string{
		"<th>rows</th>", "<th>name</th><th>count</th><th>note</th>",
		`<a href="/debug/test/a%3Cb">a&lt;b</a>`, `<a href="/debug/test/c">c</a>`,
		"<pre>two\nlines</pre>", "<th>empty</th><td>none</td>", "test view",
	} {
		if !strings.Contains(list, want) {
			t.Errorf("list page missing %q:\n%s", want, list)
		}
	}
	if strings.Contains(list, "a<b") {
		t.Error("list page leaks an unescaped value")
	}
	detail, _ := getAccept(t, ts.URL+"/debug/test/c", "text/html")
	if !strings.Contains(detail, "<tr><th>count</th><td>2</td></tr>") || strings.Contains(detail, "<a href") {
		t.Errorf("detail page:\n%s", detail)
	}
}
