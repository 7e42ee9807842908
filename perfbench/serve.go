package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/archive"
	"repro/internal/grid"
)

// Offered loads, in requests per second. Each sits well below what the
// 2-CPU reference box (benchmark process and tacd sharing it) sustains,
// so the queue stays short and latency measures service, not backlog.
const (
	scanRate = 150
	hotRate  = 400
)

// maxLateP99Ms bounds how late the generator may queue its requests
// (99th percentile over the timed run); a run past it did not offer the
// stated load and is flagged invalid.
const maxLateP99Ms = 50

// maxWholeLevelCells caps whole-level requests at a 64³ dense response;
// larger levels are requested as windows (a sparse 128³ level would be
// an 8 MB response of mostly zeros).
const maxWholeLevelCells = 64 * 64 * 64

// archiveName is the name the campaign archive is served under.
const archiveName = "camp"

// request is one entry of a workload's request universe with the
// response it must produce.
type request struct {
	Member int          `json:"member"`
	Level  int          `json:"level"`
	ROI    *grid.Region `json:"roi,omitempty"` // level cells; nil = whole level
	Dims   string       `json:"dims"`          // expected X-Tac-Dims
	Region string       `json:"region"`        // expected X-Tac-Region
	CRC    uint32       `json:"crc"`           // CRC32 (IEEE) of the float32 LE body
	Bytes  int64        `json:"bytes"`         // identity body length
}

// path is the request's URL path below the archive.
func (q request) path() string {
	p := fmt.Sprintf("snap/%d/level/%d", q.Member, q.Level)
	if q.ROI != nil {
		r := q.ROI
		p += fmt.Sprintf("?roi=%d:%d,%d:%d,%d:%d", r.X0, r.X1, r.Y0, r.Y1, r.Z0, r.Z1)
	}
	return p
}

// servePlan is everything a serving workload needs before its timed
// window: the request universe with expected responses, the warm-up and
// timed streams over it, and tacd's cache budgets.
type servePlan struct {
	workload     string
	items        []request
	warm, stream []int // indices into items
	gzipEvery    int   // every n-th request advertises gzip (0 = none)
	rate         float64
	cacheMB      int64 // tacd -cache-mb
	remoteMB     int64 // tacd -remote-cache-mb (scan only)
	workingSetMB float64
}

// planServe builds the workload's request universe from the archive
// index, computes (or loads the cached) expected responses, and derives
// the request streams from the seed.
func planServe(workload string, seed int64, seconds float64, c *campaign, blob []byte) (*servePlan, error) {
	r, err := tac.OpenArchive(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	p := &servePlan{workload: workload}
	members := r.Members()
	switch workload {
	case "scan":
		// Every level of every member whole (up to 64³ cells), plus three
		// half-extent windows of every level of at least 64³ cells,
		// requested uniformly: little reuse, so the small caches below
		// keep missing. The seed moves the windows, not the mix of request
		// shapes; at scale 8 the mix is about 8% 16 KB, 66% 128 KB and
		// 24% 1 MB responses, so neither p50 nor p90 sits on the edge
		// between two sizes.
		for mi := range members {
			for li := range members[mi].Levels {
				idx := &members[mi].Levels[li]
				if idx.Dims.Count() <= maxWholeLevelCells {
					p.items = append(p.items, request{Member: mi, Level: li})
				}
				d := idx.Dims
				for k := 0; d.Count() >= maxWholeLevelCells && k < 3; k++ {
					if roi, ok := windowAround(rng, idx, grid.Dims{X: d.X / 2, Y: d.Y / 2, Z: d.Z / 2}); ok {
						p.items = append(p.items, request{Member: mi, Level: li, ROI: &roi})
					}
				}
			}
		}
		p.rate = scanRate
		n := int(seconds * p.rate)
		p.warm = uniformStream(rng, len(p.items), int(p.rate))
		p.stream = uniformStream(rng, len(p.items), n)
	case "hot":
		// Small finest-level windows around stored blocks and coarse whole
		// levels of the Run1 snapshots, requested Zipf-skewed by rank. The
		// shape and the dataset (hence the level density) at each rank are
		// fixed, so the seed moves which data is hot, not the mix.
		groups := map[string][]int{}
		var names []string
		for _, mi := range largestCoarsest(members) {
			n := members[mi].Name
			if groups[n] == nil {
				names = append(names, n)
			}
			groups[n] = append(groups[n], mi)
		}
		for rank := 0; rank < 128; rank++ {
			group := groups[names[rank/4%len(names)]]
			mi := group[rng.Intn(len(group))]
			if rank%4 == 2 {
				p.items = append(p.items, request{Member: mi, Level: len(members[mi].Levels) - 1})
				continue
			}
			e := []int{16, 24, 0, 32}[rank%4]
			roi, ok := windowAround(rng, &members[mi].Levels[0], grid.Dims{X: e, Y: e, Z: e})
			if !ok {
				return nil, fmt.Errorf("member %d stores no finest-level block", mi)
			}
			p.items = append(p.items, request{Member: mi, Level: 0, ROI: &roi})
		}
		p.rate = hotRate
		p.gzipEvery = 4
		for k := 0; k < 2; k++ {
			for i := range p.items {
				p.warm = append(p.warm, i)
			}
		}
		// Zipf-Mandelbrot, P(rank k) ∝ (4+k)^-1.1: the ten hottest items
		// take about 40% of the requests, and no single item more than 9%.
		z := rand.NewZipf(rng, 1.1, 4, uint64(len(p.items)-1))
		for i := 0; i < int(seconds*p.rate); i++ {
			p.stream = append(p.stream, int(z.Uint64()))
		}
	default:
		return nil, fmt.Errorf("no serving plan for workload %q", workload)
	}
	if len(p.stream) == 0 {
		return nil, fmt.Errorf("%s: -seconds too short for one request", workload)
	}

	ws := workingSet(r, p.items)
	p.workingSetMB = float64(ws) / 1e6
	if workload == "scan" {
		// Well below the decoded working set: nearly every request
		// fetches and decodes frames.
		p.cacheMB = max(1, ws>>20/8)
		p.remoteMB = 1
	} else {
		// Above the hot set, so the warm cache serves every request.
		p.cacheMB = 2*(ws>>20) + 8
	}
	if err := p.expect(r, c, blob); err != nil {
		return nil, err
	}
	return p, nil
}

// windowAround returns a window of the given extent (clipped to the
// level) centred on a randomly chosen stored block, so every window
// decodes data; ok is false for a level with no stored block.
func windowAround(rng *rand.Rand, idx *archive.LevelIndex, e grid.Dims) (grid.Region, bool) {
	ords := idx.Mask.OccupiedIndices()
	if len(ords) == 0 {
		return grid.Region{}, false
	}
	bx, by, bz := idx.Mask.Dim.Coords(ords[rng.Intn(len(ords))])
	ub := idx.UnitBlock
	place := func(c, ext, n int) (int, int) {
		ext = max(1, min(ext, n))
		a := min(max(0, c*ub+ub/2-ext/2), n-ext)
		return a, a + ext
	}
	var r grid.Region
	r.X0, r.X1 = place(bx, e.X, idx.Dims.X)
	r.Y0, r.Y1 = place(by, e.Y, idx.Dims.Y)
	r.Z0, r.Z1 = place(bz, e.Z, idx.Dims.Z)
	return r, true
}

// largestCoarsest returns the members whose coarsest level is the largest
// in the campaign (Run1's, in the Table-1 catalog).
func largestCoarsest(members []archive.Member) []int {
	var out []int
	best := 0
	for mi := range members {
		n := members[mi].Levels[len(members[mi].Levels)-1].Dims.Count()
		switch {
		case n > best:
			best, out = n, []int{mi}
		case n == best:
			out = append(out, mi)
		}
	}
	return out
}

func uniformStream(rng *rand.Rand, items, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(items)
	}
	return out
}

// frameKey names one block-batch frame of the archive.
type frameKey struct{ member, level, batch int }

// framesOf returns the frames a request decodes: every batch of the level,
// or for a window the batches holding a block inside it (the serving
// layer's own selection rule).
func framesOf(m *archive.Member, q request) []frameKey {
	idx := &m.Levels[q.Level]
	var out []frameKey
	ords := idx.Mask.OccupiedIndices()
	ub := idx.UnitBlock
	for b := range idx.Batches {
		if q.ROI == nil {
			out = append(out, frameKey{q.Member, q.Level, b})
			continue
		}
		r := q.ROI
		lo, hi := idx.BatchSpan(b)
		for _, ord := range ords[lo:hi] {
			bx, by, bz := idx.Mask.Dim.Coords(ord)
			if bx >= r.X0/ub && bx < (r.X1+ub-1)/ub && by >= r.Y0/ub && by < (r.Y1+ub-1)/ub &&
				bz >= r.Z0/ub && bz < (r.Z1+ub-1)/ub {
				out = append(out, frameKey{q.Member, q.Level, b})
				break
			}
		}
	}
	return out
}

// workingSet is the decoded size in bytes of the frames the requests
// touch.
func workingSet(r *tac.ArchiveReader, items []request) int64 {
	seen := make(map[frameKey]bool)
	var n int64
	members := r.Members()
	for _, q := range items {
		m := &members[q.Member]
		for _, f := range framesOf(m, q) {
			if seen[f] {
				continue
			}
			seen[f] = true
			n += decodedBytes(&m.Levels[f.level], f.batch)
		}
	}
	return n
}

// decodedBytes is the float32 size of batch b of a level once decoded.
func decodedBytes(idx *archive.LevelIndex, b int) int64 {
	lo, hi := idx.BatchSpan(b)
	return int64(hi-lo) * int64(idx.UnitBlock*idx.UnitBlock*idx.UnitBlock) * 4
}

// expect fills in every request's expected response from
// archive.Reader.ExtractLevel / ExtractRegion of the same request, cached
// per campaign and archive content.
func (p *servePlan) expect(r *tac.ArchiveReader, c *campaign, blob []byte) error {
	// The cache key covers the archive bytes and the requests themselves.
	h := crc32.NewIEEE()
	h.Write(blob)
	for _, q := range p.items {
		h.Write([]byte(q.path() + "\n"))
	}
	path := filepath.Join(c.dir, fmt.Sprintf("expect-%s-%08x.json", p.workload, h.Sum32()))
	if cached, err := os.ReadFile(path); err == nil {
		var items []request
		if json.Unmarshal(cached, &items) == nil && len(items) == len(p.items) {
			p.items = items
			return nil
		}
	}
	members := r.Members()
	for i := range p.items {
		q := &p.items[i]
		var g *grid.Grid3[float32]
		var reg grid.Region
		if q.ROI == nil {
			l, err := r.ExtractLevel(q.Member, q.Level)
			if err != nil {
				return err
			}
			g, reg = l.Grid, grid.RegionOf(l.Grid.Dim)
		} else {
			// ROIs address level cells; ExtractRegion takes finest cells.
			scale := 1
			for range q.Level {
				scale *= members[q.Member].Ratio
			}
			fine := grid.Region{
				X0: q.ROI.X0 * scale, Y0: q.ROI.Y0 * scale, Z0: q.ROI.Z0 * scale,
				X1: q.ROI.X1 * scale, Y1: q.ROI.Y1 * scale, Z1: q.ROI.Z1 * scale,
			}
			ds, err := r.ExtractRegion(q.Member, fine)
			if err != nil {
				return err
			}
			g, reg = ds.Levels[q.Level].Grid.Extract(*q.ROI), *q.ROI
		}
		body := floatBytes(g.Data)
		q.Dims = fmt.Sprintf("%d %d %d", g.Dim.X, g.Dim.Y, g.Dim.Z)
		q.Region = fmt.Sprintf("%d:%d,%d:%d,%d:%d", reg.X0, reg.X1, reg.Y0, reg.Y1, reg.Z0, reg.Z1)
		q.CRC = crc32.ChecksumIEEE(body)
		q.Bytes = int64(len(body))
	}
	out, err := json.Marshal(p.items)
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func floatBytes(vals []float32) []byte {
	out := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// buildArchive loads the campaign and writes the archive a serving
// workload uses, reporting the write-path metrics of the passes.
func buildArchive(c *campaign, m metrics, fp map[string]any) ([]byte, tally, error) {
	snaps, err := c.load()
	if err != nil {
		return nil, tally{}, err
	}
	cfg := codecConfig(nproc())
	wl, t, err := runWrites(snaps, cfg, c.inputBytes, buildPasses, 0)
	if err != nil {
		return nil, t, err
	}
	t.failed += wl.verify(snaps, cfg)
	writeMetrics(m, fp, wl, c.inputBytes)
	return wl.archive, t, nil
}

// buildPasses is how many campaign passes a serving workload times while
// building its archive.
const buildPasses = 12

// runServe is the scan or hot workload against a real tacd.
func runServe(o options, c *campaign, tmp string, m metrics, fp map[string]any) (tally, error) {
	blob, t, err := buildArchive(c, m, fp)
	if err != nil {
		return t, err
	}
	p, err := planServe(o.workload, o.seed, o.seconds, c, blob)
	if err != nil {
		return t, err
	}
	p.describe(fp)
	st, err := startStack(p, tmp, blob, nil)
	if err != nil {
		return t, err
	}
	defer st.close()

	var setups []float64
	var d *tacd
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return t, err
			}
		}
		var setup time.Duration
		if d, setup, err = startTacd(o.tacd, p, st.spec); err != nil {
			return t, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer d.stop()

	g := newGenerator(d.addr, o.via, p.items)
	t.add(tallyOf(g.run(p.warm, p.gzipEvery, p.rate)))
	samples, cpuSec, err := measure(g, p, p.stream, d.pid())
	if err != nil {
		return t, err
	}
	rss, err := peakRSSMB(fmt.Sprint(d.pid()))
	if err != nil {
		return t, err
	}
	if err := d.stop(); err != nil {
		return t, err
	}
	t.add(tallyOf(samples))
	sum := summarize(samples, cpuSec, fp)
	m.set("setup_s", median(setups), "s")
	fp["p50_ms"] = sum.p50
	fp["p90_ms"] = sum.p90
	m.set("cpu_ms_per_req", sum.cpuMs, "ms")
	m.set("peak_rss_mb", rss, "MB")
	return t, nil
}

// measure runs the stream against tacd (pid) and returns the samples and
// tacd's CPU time over the run.
func measure(g *generator, p *servePlan, stream []int, pid int) ([]sample, float64, error) {
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, 0, err
	}
	samples := g.run(stream, p.gzipEvery, p.rate)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, 0, err
	}
	return samples, cpu1 - cpu0, nil
}

// summary is what a run reports from its samples.
type summary struct {
	p50, p90, cpuMs float64
}

// summarize reports latency quantiles and tacd CPU per request over the
// whole timed run. A run whose generator queued its p99 request more than
// maxLateP99Ms late is flagged invalid in the fingerprint and on standard
// error.
func summarize(samples []sample, cpuSec float64, fp map[string]any) summary {
	late := quantile(lateness(samples), 0.99)
	fp["gen_late_p99_ms"] = late
	if late > maxLateP99Ms {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: the generator queued its p99 request %.1f ms late (bound %d ms)\n", late, maxLateP99Ms)
		fp["invalid"] = true
	}
	lat := latencies(samples)
	return summary{
		p50:   quantile(lat, 0.5),
		p90:   quantile(lat, 0.9),
		cpuMs: cpuSec * 1000 / float64(len(samples)),
	}
}

// describe adds the plan's working set and cache budgets to the
// fingerprint.
func (p *servePlan) describe(fp map[string]any) {
	fp[p.workload+"_requests_universe"] = len(p.items)
	fp[p.workload+"_decoded_working_set_mb"] = p.workingSetMB
	fp[p.workload+"_cache_mb"] = p.cacheMB
	if p.remoteMB > 0 {
		fp[p.workload+"_remote_cache_mb"] = p.remoteMB
	}
	fp[p.workload+"_rate_per_s"] = p.rate
}
