package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"genogo/internal/federation"
	"genogo/internal/formats"
	"genogo/internal/synth"
)

// overloadScript is deliberately heavy (genometric JOIN plus MAP over the
// synthetic repo) so concurrent queries actually overlap in the engine.
const overloadScript = `
PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
NEAR = JOIN(DLE(200000)) PROMS PEAKS;
RESULT = MAP(peak_count AS COUNT) PROMS NEAR;
MATERIALIZE RESULT;
`

// writeBigRepo materializes a repository heavy enough that one query takes
// measurable time.
func writeBigRepo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	g := synth.New(9)
	if err := formats.WriteDatasetColumnar(filepath.Join(dir, "ENCODE"),
		g.Encode(synth.EncodeOptions{Samples: 16, MeanPeaks: 1500})); err != nil {
		t.Fatal(err)
	}
	if err := formats.WriteDatasetColumnar(filepath.Join(dir, "ANNOTATIONS"),
		g.Annotations(g.Genes(400))); err != nil {
		t.Fatal(err)
	}
	return dir
}

func postOverloadQuery(url string) (int, string, error) {
	body, _ := json.Marshal(federation.QueryRequest{Script: overloadScript, Var: "RESULT"})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

// TestOverloadSmokeRealBinary is the overload drill against the real gmqld
// process: a saturating burst at several times admission capacity must be
// answered with 200s and 429s only (shed, not errored or OOM-killed), and a
// SIGTERM afterwards must drain cleanly to exit code 0.
func TestOverloadSmokeRealBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "gmqld")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	repo := writeBigRepo(t)

	// Reserve a port, free it, and hand it to the server.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin, "-data", repo, "-addr", addr, "-mode", "serial",
		"-max-concurrent", "2", "-max-queue", "0", "-queue-timeout", "100ms",
		"-drain-timeout", "10s")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	url := "http://" + addr
	ready := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(url + "/datasets")
		if err == nil {
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
			if ready {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !ready {
		t.Fatal("server never became ready")
	}

	// Saturating burst: 16 simultaneous queries against capacity 2.
	const burst = 16
	var ok, shed, other atomic.Int64
	var missingRetryAfter atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			code, retryAfter, err := postOverloadQuery(url)
			switch {
			case err != nil:
				other.Add(1)
			case code == http.StatusOK:
				ok.Add(1)
			case code == http.StatusTooManyRequests:
				shed.Add(1)
				if retryAfter == "" {
					missingRetryAfter.Add(1)
				}
			default:
				other.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	t.Logf("burst of %d: %d ok, %d shed, %d other", burst, ok.Load(), shed.Load(), other.Load())
	if other.Load() != 0 {
		t.Errorf("%d responses were neither 200 nor 429", other.Load())
	}
	if ok.Load() == 0 {
		t.Error("no query was admitted during the burst")
	}
	if shed.Load() == 0 {
		t.Error("no query was shed during a 8x-capacity burst")
	}
	if missingRetryAfter.Load() != 0 {
		t.Errorf("%d shed responses lacked Retry-After", missingRetryAfter.Load())
	}

	// Clean drain on SIGTERM: exit code 0 well within the drain budget.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Errorf("gmqld exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Error("gmqld did not exit within the drain budget")
	}
}

// TestOverloadExperiment measures throughput and p99 latency of admitted
// queries at 4x capacity, with and without admission control — the numbers
// behind the EXPERIMENTS.md overload table. Heavy; run explicitly with
// OVERLOAD_REPORT=1.
func TestOverloadExperiment(t *testing.T) {
	if os.Getenv("OVERLOAD_REPORT") == "" {
		t.Skip("set OVERLOAD_REPORT=1 to run the overload measurement")
	}
	repo := writeBigRepo(t)
	capacity := runtime.GOMAXPROCS(0) / 2
	if capacity < 2 {
		capacity = 2
	}
	clients := 4 * capacity

	runLoad := func(args []string) (qps float64, p50, p99 time.Duration, ok, shed int) {
		var out bytes.Buffer
		n, err := setup(append([]string{"-data", repo, "-mode", "serial"}, args...), &out)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(n.srv.Handler)
		defer ts.Close()
		var mu sync.Mutex
		var lat []time.Duration
		var shedCount int
		stop := time.Now().Add(3 * time.Second)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
					begin := time.Now()
					code, _, err := postOverloadQuery(ts.URL)
					took := time.Since(begin)
					mu.Lock()
					switch {
					case err == nil && code == http.StatusOK:
						lat = append(lat, took)
					case err == nil && code == http.StatusTooManyRequests:
						shedCount++
					}
					mu.Unlock()
				}
			}()
		}
		startAt := time.Now()
		wg.Wait()
		elapsed := time.Since(startAt)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		if len(lat) == 0 {
			t.Fatal("no successful queries")
		}
		return float64(len(lat)) / elapsed.Seconds(),
			lat[len(lat)/2], lat[len(lat)*99/100], len(lat), shedCount
	}

	fmt.Printf("overload: %d clients vs capacity %d (GOMAXPROCS %d)\n", clients, capacity, runtime.GOMAXPROCS(0))
	qps, p50, p99, ok, shed := runLoad(nil)
	fmt.Printf("no admission:   %.0f q/s  p50 %v  p99 %v  (%d ok, %d shed)\n", qps, p50, p99, ok, shed)
	qps, p50, p99, ok, shed = runLoad([]string{
		"-max-concurrent", fmt.Sprint(capacity), "-max-queue", fmt.Sprint(capacity), "-queue-timeout", "100ms"})
	fmt.Printf("admission %d/%d: %.0f q/s  p50 %v  p99 %v  (%d ok, %d shed)\n", capacity, capacity, qps, p50, p99, ok, shed)
}
