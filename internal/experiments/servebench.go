package experiments

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/server"
	"repro/internal/sim"
)

// ServeBenchResult is the machine-readable serving-layer record
// cmd/benchall -json emits: request throughput through the tacd HTTP
// stack and the behavior of the block-level LRU cache under a repeated
// mixed workload, tracking the concurrent serving path across PRs.
type ServeBenchResult struct {
	Members     int `json:"members"`
	Requests    int `json:"requests"`
	Concurrency int `json:"concurrency"`

	Seconds        float64 `json:"seconds"`
	RequestsPerSec float64 `json:"requests_per_s"`
	ServedBytes    int64   `json:"served_bytes"`
	ServedMBps     float64 `json:"served_mb_per_s"`

	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	Decodes       int64   `json:"decodes"`
}

// ServeBench stands up the full serving stack — archive on an in-memory
// ReaderAt, server.Server with its sharded cache, real HTTP over
// loopback — and measures a repeated level + region workload from
// concurrent clients, the access pattern of an analysis fleet scanning a
// campaign's hot snapshots.
func ServeBench(env *Env) (ServeBenchResult, error) {
	var res ServeBenchResult
	names := []string{"Run1_Z10", "Run1_Z5"}
	cfg := codec.Config{ErrorBound: 1e9, Workers: -1}

	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf)
	if err != nil {
		return res, err
	}
	for _, name := range names {
		ds, err := env.Dataset(name, sim.BaryonDensity)
		if err != nil {
			return res, err
		}
		if err := w.AddDataset(ds, cfg); err != nil {
			return res, err
		}
	}
	if err := w.Close(); err != nil {
		return res, err
	}
	res.Members = len(names)

	r, err := archive.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return res, err
	}
	srv := server.New(server.Config{CacheBytes: 256 << 20})
	if err := srv.AddReader("bench", r, nil); err != nil {
		return res, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The request mix: every level of every member plus two region
	// windows per member, repeated over several rounds — the first round
	// misses and decodes, later rounds measure the cached serving path.
	var paths []string
	for mi := range r.Members() {
		m := &r.Members()[mi]
		for li := range m.Levels {
			paths = append(paths, fmt.Sprintf("/v1/a/bench/snap/%d/level/%d", mi, li))
		}
		fd := m.Levels[0].Dims
		paths = append(paths,
			fmt.Sprintf("/v1/a/bench/snap/%d/level/0?roi=0:%d,0:%d,0:%d", mi, fd.X/2, fd.Y/2, fd.Z/2),
			fmt.Sprintf("/v1/a/bench/snap/%d/level/0?roi=%d:%d,%d:%d,%d:%d", mi,
				fd.X/4, 3*fd.X/4, fd.Y/4, 3*fd.Y/4, fd.Z/4, 3*fd.Z/4))
	}
	const rounds, concurrency = 6, 4
	jobs := make(chan string, rounds*len(paths))
	for i := 0; i < rounds; i++ {
		for _, p := range paths {
			jobs <- p
		}
	}
	close(jobs)
	res.Requests = rounds * len(paths)
	res.Concurrency = concurrency

	client := &http.Client{Transport: &http.Transport{
		DisableCompression:  true, // measure the identity path, not gzip CPU
		MaxIdleConnsPerHost: concurrency,
	}}
	var served atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				resp, err := client.Get(ts.URL + p)
				if err != nil {
					fail(err)
					return
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					fail(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("GET %s: status %d", p, resp.StatusCode))
					return
				}
				served.Add(n)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return res, fmt.Errorf("serve bench: %w", firstErr)
	}
	res.Seconds = time.Since(start).Seconds()
	res.RequestsPerSec = float64(res.Requests) / res.Seconds
	res.ServedBytes = served.Load()
	res.ServedMBps = float64(res.ServedBytes) / 1e6 / res.Seconds

	st := srv.Cache().Stats()
	res.CacheHits = st.Hits
	res.CacheMisses = st.Misses
	res.CacheHitRatio = st.HitRatio()
	res.Decodes = st.Decodes
	return res, nil
}
