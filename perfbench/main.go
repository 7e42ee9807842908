// Command perfbench is the repository benchmark. It runs one of three
// seeded workloads over a campaign of synthetic Table-1 snapshots and
// prints every metric by name and unit, checking every output:
//
//   - write: the campaign through tac.Encoder.Compress and
//     archive.Writer.AddDataset in a closed loop (one caller, Workers =
//     nproc);
//   - scan: an open loop of whole-level and large-ROI requests against a
//     real tacd that mounts the campaign archive over HTTP Range, with
//     caches well below the decoded working set;
//   - hot: an open loop of Zipf-skewed small ROI windows and coarse levels
//     against a real tacd serving the local archive from a warm cache.
//
// With -trace 1 the run instead profiles every layer (codec, archive,
// server, remote, sz) on all three traffics and prints the per-layer
// metrics. See README.md for the metric definitions and which end-to-end
// metric each layer metric should move.
//
// Usage (from the repository root; perfbench/run.sh builds the binaries):
//
//	perfbench -workload write|scan|hot -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported numbers by name.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line a run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts checked operations and failures; any mismatch or error
// counts as a failure.
type tally struct{ attempted, failed int64 }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

// options are a run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int    // campaign resolution divisor vs the paper
	work     string // scratch directory: caches, archives, traces
	tacd     string // tacd binary built from the tree under test
	via      string // optional proxy base URL requests go through (smoke test)
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "write, scan or hot")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the campaign and the request streams")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	flag.StringVar(&o.tacd, "tacd", "", "tacd binary (default <work>/bin/tacd)")
	flag.Parse()
	o.trace = trace == 1
	o.scale = 8
	if o.tacd == "" {
		o.tacd = filepath.Join(o.work, "bin", "tacd")
	}
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if o.seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	switch o.workload {
	case "write", "scan", "hot":
	default:
		fail(fmt.Errorf("unknown -workload %q (want write, scan or hot)", o.workload))
	}
	res, err := run(o)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run prepares the seed's campaign and runs the workload (or, with
// tracing, the layer profile).
func run(o options) (result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)

	camp, err := prepareCampaign(o)
	if err != nil {
		return result{}, err
	}
	fp := fingerprint(o, camp)
	m := metrics{}
	var t tally
	switch {
	case o.trace:
		t, err = runTrace(o, camp, tmp, m, fp)
	case o.workload == "write":
		t, err = runWrite(o, camp, m, fp)
	default:
		t, err = runServe(o, camp, tmp, m, fp)
	}
	if err != nil {
		return result{}, err
	}
	printFingerprint(fp)
	if t.attempted == 0 {
		return result{}, fmt.Errorf("no operations were attempted")
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// nproc is the generator's connection and worker budget.
func nproc() int { return runtime.NumCPU() }
