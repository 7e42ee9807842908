package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// The smoke test runs every workload at scale 16 for about a second
// against a tacd built from this tree, so it takes a minute or two:
//
//	cd perfbench && go test .

// definition is the part of BENCHMARK.json the smoke test checks against.
type definition struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDefinition(t *testing.T) definition {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d definition
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tinyOptions builds tacd once per test and returns options for a tiny
// run of the workload.
func tinyOptions(t *testing.T, workload string) options {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "tacd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/tacd").CombinedOutput(); err != nil {
		t.Fatalf("building tacd: %v\n%s", err, out)
	}
	return options{workload: workload, seed: 1, seconds: 1, scale: 16, work: dir, tacd: bin}
}

func checkMetrics(t *testing.T, label string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", label, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, w.Name, m.Unit, w.Unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	def := loadDefinition(t)
	for _, w := range []string{"write", "scan", "hot"} {
		t.Run(w, func(t *testing.T) {
			o := tinyOptions(t, w)
			res, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, w, res.Metrics, def.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: metric %s = %v, want > 0", w, name, m.Value)
				}
			}
		})
	}
	t.Run("trace", func(t *testing.T) {
		o := tinyOptions(t, "hot")
		o.trace = true
		res, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, "trace", res.Metrics, def.PerLayer)
		if d := res.Metrics["hot.server.decodes"].Value; d != 0 {
			t.Errorf("hot.server.decodes = %v after warm-up, want 0", d)
		}
	})
}

// corruptingProxy forwards each request to the address in its
// upstreamHeader and flips one byte in every n-th response body.
func corruptingProxy(n int64, corrupted *atomic.Int64) *httptest.Server {
	var seen atomic.Int64
	transport := &http.Transport{DisableCompression: true}
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequest(r.Method, "http://"+r.Header.Get(upstreamHeader)+r.URL.RequestURI(), nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := transport.RoundTrip(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if seen.Add(1)%n == 0 && len(body) > 0 {
			body[len(body)/2] ^= 0xff
			corrupted.Add(1)
		}
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
}

func TestCorruptedBodyCountsAsFailure(t *testing.T) {
	var corrupted atomic.Int64
	proxy := corruptingProxy(7, &corrupted)
	defer proxy.Close()
	o := tinyOptions(t, "hot")
	o.via = proxy.URL
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if corrupted.Load() == 0 {
		t.Fatal("the proxy corrupted no body")
	}
	if res.Failed != corrupted.Load() || res.Correct {
		t.Errorf("failed=%d correct=%v, want failed=%d correct=false", res.Failed, res.Correct, corrupted.Load())
	}
}
