package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/server"
	"repro/internal/sim"
)

// IngestBenchResult is the machine-readable write-path record cmd/benchall
// -json emits: sustained ingest throughput through the full HTTP stack —
// parse, compress, crash-safe commit, view republish — while concurrent
// readers hammer the already-committed members, the live-campaign workload
// the ingest subsystem exists for.
type IngestBenchResult struct {
	Snapshots   int `json:"snapshots"`
	Readers     int `json:"readers"`
	QueueDepth  int `json:"queue_depth"`
	FinalMember int `json:"final_members"`
	Generation  int `json:"generation"`

	Seconds        float64 `json:"seconds"`
	IngestedBytes  int64   `json:"ingested_bytes"`
	IngestMBps     float64 `json:"ingest_mb_per_s"`
	SnapshotsPerS  float64 `json:"snapshots_per_s"`
	Rejected       int64   `json:"rejected"`
	ReadRequests   int64   `json:"read_requests"`
	ReadMBps       float64 `json:"read_mb_per_s"`
	ArchiveBytes   int64   `json:"archive_bytes"`
	ReopenedOK     bool    `json:"reopened_ok"`
	ReopenedMember int     `json:"reopened_members"`
}

// IngestBench stands up a writable archive on disk behind the full tacd
// stack and measures sustained snapshot ingest over HTTP concurrent with
// read traffic: two reader goroutines loop over the committed members'
// levels the whole time snapshots stream in. After the drain it reopens
// the file cold and verifies every ingest actually landed.
func IngestBench(env *Env) (IngestBenchResult, error) {
	var res IngestBenchResult
	cfg := codec.Config{ErrorBound: 1e9, Workers: -1}

	// Seed archive: one committed member the readers will hammer.
	dir, err := os.MkdirTemp("", "tac-ingestbench-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "live.taca")
	seed, err := env.Dataset("Run1_Z10", sim.BaryonDensity)
	if err != nil {
		return res, err
	}
	f, err := os.Create(path)
	if err != nil {
		return res, err
	}
	w, err := archive.NewWriter(f)
	if err != nil {
		f.Close()
		return res, err
	}
	if err := w.AddDataset(seed, cfg); err != nil {
		f.Close()
		return res, err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return res, err
	}
	if err := f.Close(); err != nil {
		return res, err
	}

	srv := server.New(server.Config{CacheBytes: 256 << 20})
	if _, err := srv.Add("live", server.ArchiveSpec{Primary: path, Append: true, Ingest: cfg}); err != nil {
		return res, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Pre-serialize the ingest payloads so the measured loop times the
	// server, not the client-side generator. Each snapshot is a renamed
	// view of a cached dataset (Write only reads, so sharing levels is
	// safe).
	const snapshots, readers = 6, 2
	base, err := env.Dataset("Run1_Z5", sim.BaryonDensity)
	if err != nil {
		return res, err
	}
	payloads := make([][]byte, snapshots)
	for i := range payloads {
		ds := *base
		ds.Name = fmt.Sprintf("ingest%03d", i)
		var buf bytes.Buffer
		if err := ds.Write(&buf); err != nil {
			return res, err
		}
		payloads[i] = buf.Bytes()
		res.IngestedBytes += int64(base.OriginalBytes())
	}
	res.Snapshots = snapshots
	res.Readers = readers
	res.QueueDepth = server.DefaultIngestQueue

	client := &http.Client{Transport: &http.Transport{
		DisableCompression:  true,
		MaxIdleConnsPerHost: readers + 1,
	}}
	var readBytes, readReqs atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for li := 0; ; li = (li + 1) % len(seed.Levels) {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(ts.URL + fmt.Sprintf("/v1/a/live/snap/0/level/%d", li))
				if err != nil {
					fail(err)
					return
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("concurrent read: status %d err %v", resp.StatusCode, err))
					return
				}
				readBytes.Add(n)
				readReqs.Add(1)
			}
		}()
	}

	start := time.Now()
	for i, body := range payloads {
		resp, err := client.Post(ts.URL+"/v1/a/live/ingest", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			close(stop)
			wg.Wait()
			return res, err
		}
		var ack struct {
			Snapshot   int    `json:"snapshot"`
			Generation uint64 `json:"generation"`
		}
		jerr := json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || jerr != nil {
			close(stop)
			wg.Wait()
			return res, fmt.Errorf("ingest %d: status %d decode %v", i, resp.StatusCode, jerr)
		}
		res.FinalMember = ack.Snapshot + 1
		res.Generation = int(ack.Generation)
	}
	res.Seconds = time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	if firstErr != nil {
		return res, fmt.Errorf("ingest bench: %w", firstErr)
	}
	res.IngestMBps = float64(res.IngestedBytes) / 1e6 / res.Seconds
	res.SnapshotsPerS = float64(snapshots) / res.Seconds
	res.ReadRequests = readReqs.Load()
	res.ReadMBps = float64(readBytes.Load()) / 1e6 / res.Seconds
	res.Rejected = srv.IngestStats().Rejected

	// Drain, seal, and prove durability with a cold reopen.
	srv.SetDraining(true)
	if err := srv.Close(); err != nil {
		return res, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return res, err
	}
	res.ArchiveBytes = st.Size()
	fr, err := archive.OpenFile(path)
	if err != nil {
		return res, fmt.Errorf("reopening grown archive: %w", err)
	}
	defer fr.Close()
	res.ReopenedMember = len(fr.Members())
	res.ReopenedOK = res.ReopenedMember == 1+snapshots
	if !res.ReopenedOK {
		return res, fmt.Errorf("reopened archive has %d members, want %d", res.ReopenedMember, 1+snapshots)
	}
	// Spot-check the last ingested member decodes.
	if _, err := fr.ExtractLevel(res.ReopenedMember-1, 0); err != nil {
		return res, fmt.Errorf("extracting last ingested member: %w", err)
	}
	return res, nil
}
