package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kdtree"
	"repro/internal/preprocess"
	"repro/internal/remote"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/sz"
)

// span is one timed call at a layer boundary, recorded from the
// benchmark's own files around the call into the layer.
type span struct {
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Parent int       `json:"parent"` // index of the causing span, -1 for none
	Req    int       `json:"req,omitempty"`
	Gzip   bool      `json:"gzip,omitempty"`
	Off    int64     `json:"off,omitempty"`
	Bytes  int64     `json:"bytes,omitempty"`
	Label  string    `json:"label,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory while on; they are written out when the
// run ends.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	if t == nil || !t.on.Load() {
		return
	}
	s.Parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take stops recording and returns the spans recorded since the last
// take.
func (t *tracer) take() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// timedReaderAt records every read the archive layer issues.
type timedReaderAt struct {
	r  io.ReaderAt
	tr *tracer
}

func (t *timedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := t.r.ReadAt(p, off)
	t.tr.add(span{Name: "archive.readat", Start: start, End: time.Now(), Off: off, Bytes: int64(n)})
	return n, err
}

// tracedHandler records the server-side time of every request.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		id, _ := strconv.Atoi(r.Header.Get(requestIDHeader))
		tr.add(span{Name: "server.handler", Start: start, End: time.Now(), Req: id,
			Gzip: r.Header.Get("Accept-Encoding") != ""})
	})
}

// runTrace is the traced run: it profiles every layer on all three
// traffics, so every traced run reports every per-layer metric.
func runTrace(o options, c *campaign, tmp string, m metrics, fp map[string]any) (tally, error) {
	snaps, err := c.load()
	if err != nil {
		return tally{}, err
	}
	cfg := codecConfig(nproc())
	wl, t, err := runWrites(snaps, cfg, c.inputBytes, 4, 0)
	if err != nil {
		return t, err
	}
	t.failed += wl.verify(snaps, cfg)
	// Wall-clock write throughput is a diagnostic here: the end-to-end
	// figures count CPU-seconds (see writeMetrics).
	m.set("write.tac_mb_s", quantile(wl.tacMBs, 0.75), "MB/s")
	m.set("write.archive_mb_s", quantile(wl.archiveMBs, 0.75), "MB/s")
	tr := &tracer{}
	var all []span
	ws, err := traceWrite(snaps, cfg, c.inputBytes, m, tr)
	if err != nil {
		return t, err
	}
	all = append(all, ws...)
	snaps = nil
	for _, w := range []string{"scan", "hot"} {
		p, err := planServe(w, o.seed, o.seconds, c, wl.archive)
		if err != nil {
			return t, err
		}
		p.describe(fp)
		ss, st, err := traceServe(o, p, wl.archive, tmp, m, tr)
		t.add(st)
		if err != nil {
			return t, err
		}
		for _, s := range ss {
			if s.Parent >= 0 {
				s.Parent += len(all)
			}
			all = append(all, s)
		}
	}
	path := filepath.Join(o.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	fp["trace_file"] = path
	return t, writeSpans(path, all)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceWrite times the write path layer by layer: per-level strategy
// choice and compression (core), mask extraction and ghost-shell padding
// (preprocess), and the archive writer's levels, commit, allocation and
// parallel speedup.
func traceWrite(snaps []*tac.Dataset, cfg tac.Config, inputBytes int64, m metrics, tr *tracer) ([]span, error) {
	type agg struct {
		levels    int
		ms        float64
		inB, outB int64
		passMs    []float64
	}
	strategies := map[codec.Strategy]string{codec.OpST: "opst", codec.AKD: "akdtree", codec.GSP: "gsp"}
	per := map[codec.Strategy]*agg{}
	for st := range strategies {
		per[st] = &agg{}
	}
	var extractMs, gspMs []float64
	tr.on.Store(true)
	for pass := 0; pass < 3; pass++ {
		var ex, gs float64
		for _, a := range per {
			a.ms = 0
		}
		for _, ds := range snaps {
			for li, l := range ds.Levels {
				st := core.PickStrategy(l.Density(), cfg)
				a, ok := per[st]
				if !ok {
					return nil, fmt.Errorf("unexpected strategy %s", st)
				}
				start := time.Now()
				sec, err := core.CompressLevel(l, st, cfg.LevelEB(li, l), cfg)
				end := time.Now()
				if err != nil {
					return nil, err
				}
				tr.add(span{Name: "core.compress_level", Start: start, End: end, Label: st.String()})
				a.ms += ms(end.Sub(start))
				if pass == 0 {
					a.levels++
					a.inB += int64(4 * l.StoredCells())
					a.outB += int64(len(sec))
				}
				start = time.Now()
				switch st {
				case codec.OpST:
					preprocess.OpST(l.Mask)
					ex += ms(time.Since(start))
				case codec.AKD:
					kdtree.Adaptive(l.Mask)
					ex += ms(time.Since(start))
				case codec.GSP:
					g := l.Grid.Clone()
					preprocess.ZeroUnmasked(g, l.Mask, l.UnitBlock)
					start = time.Now()
					preprocess.GSP(g, l.Mask, l.UnitBlock, cfg.GSP)
					gs += ms(time.Since(start))
				}
			}
		}
		extractMs = append(extractMs, ex)
		gspMs = append(gspMs, gs)
		for _, a := range per {
			a.passMs = append(a.passMs, a.ms)
		}
	}
	for st, name := range strategies {
		a := per[st]
		if a.levels == 0 {
			return nil, fmt.Errorf("the campaign has no %s level", st)
		}
		m.set("core."+name+".level_ms", median(a.passMs)/float64(a.levels), "ms")
		m.set("core."+name+".bytes_per_byte", float64(a.outB)/float64(a.inB), "ratio")
	}
	m.set("preprocess.extract_ms", median(extractMs), "ms")
	m.set("preprocess.gsp_ms", median(gspMs), "ms")

	// The archive writer, level by level, at Workers = nproc; then whole
	// passes at Workers = 1 for the single-threaded baseline.
	var addMs, closeMs, allocs []float64
	var levels int
	for pass := 0; pass < 3; pass++ {
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		aw, err := tac.NewArchive(io.Discard)
		if err != nil {
			return nil, err
		}
		var add float64
		levels = 0
		for _, ds := range snaps {
			mw, err := aw.BeginMember(ds.Name, ds.Field, ds.Ratio, cfg)
			if err != nil {
				return nil, err
			}
			for _, l := range ds.Levels {
				start := time.Now()
				if err := mw.AddLevel(l); err != nil {
					return nil, err
				}
				end := time.Now()
				tr.add(span{Name: "archive.add_level", Start: start, End: end})
				add += ms(end.Sub(start))
				levels++
			}
			if err := mw.Close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := aw.Close(); err != nil {
			return nil, err
		}
		closeMs = append(closeMs, ms(time.Since(start)))
		addMs = append(addMs, add)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(inputBytes))
	}
	m.set("archive.add_level_ms", median(addMs)/float64(levels), "ms")
	m.set("archive.close_ms", median(closeMs), "ms")
	m.set("archive.alloc_mb_per_input_mb", median(allocs), "ratio")

	passSec := func(workers int) (float64, error) {
		c := cfg
		c.Workers = workers
		var secs []float64
		for pass := 0; pass < 3; pass++ {
			aw, err := tac.NewArchive(io.Discard)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			for _, ds := range snaps {
				if err := aw.AddDataset(ds, c); err != nil {
					return 0, err
				}
			}
			if err := aw.Close(); err != nil {
				return 0, err
			}
			secs = append(secs, time.Since(start).Seconds())
		}
		return median(secs), nil
	}
	serial, err := passSec(1)
	if err != nil {
		return nil, err
	}
	parallel, err := passSec(nproc())
	if err != nil {
		return nil, err
	}
	m.set("archive.write_speedup", serial/parallel, "x")
	return tr.take(), nil
}

// cacheStats reads tacd's block-cache counters from /v1/stats.
func cacheStats(addr string) (server.CacheStats, error) {
	var st struct {
		Cache server.CacheStats `json:"cache"`
	}
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return st.Cache, err
	}
	defer resp.Body.Close()
	return st.Cache, json.NewDecoder(resp.Body).Decode(&st)
}

// traceServe profiles one serving workload. An untraced phase against a
// real tacd gives the reference p50, tacd's CPU per request and decode
// count, and the generator's lateness; a traced phase then hosts the same
// server.New + Server.Add wiring as cmd/tacd in-process, so the benchmark
// can wrap the HTTP handler and the io.ReaderAt under archive.Open. Each
// phase runs half the measured seconds.
func traceServe(o options, p *servePlan, blob []byte, tmp string, m metrics, tr *tracer) ([]span, tally, error) {
	var t tally
	pre := p.workload + "."
	half := len(p.stream) / 2
	if half == 0 {
		return nil, t, fmt.Errorf("%s: -seconds too short for a traced run", p.workload)
	}

	st, err := startStack(p, tmp, blob, nil)
	if err != nil {
		return nil, t, err
	}
	d, _, err := startTacd(o.tacd, p, st.spec)
	if err != nil {
		st.close()
		return nil, t, err
	}
	// Only ranges fetched by tacd's tuned reader count, not those of its
	// footer parse.
	st.longestRange.Store(0)
	g := newGenerator(d.addr, o.via, p.items)
	t.add(tallyOf(g.run(p.warm, p.gzipEvery, p.rate)))
	cs0, err0 := cacheStats(d.addr)
	untraced, cpuSec, err1 := measure(g, p, p.stream[:half], d.pid())
	cs1, err2 := cacheStats(d.addr)
	tacdSegment := st.longestRange.Load()
	stopErr := d.stop()
	st.close()
	for _, err := range []error{err0, err1, err2, stopErr} {
		if err != nil {
			return nil, t, err
		}
	}
	t.add(tallyOf(untraced))
	// Wall-clock latency is a diagnostic: on a shared host it moves with
	// the other tenants' load by more than any bound a regression check
	// could use (see README.md).
	sum := summarize(untraced, cpuSec, map[string]any{})
	m.set(pre+"p50_ms", sum.p50, "ms")
	m.set(pre+"p90_ms", sum.p90, "ms")
	late := lateness(untraced)
	m.set(pre+"gen.late_p99_ms", quantile(late, 0.99), "ms")
	m.set(pre+"gen.late_max_ms", maxOf(late), "ms")
	tacdDecodes := cs1.Decodes - cs0.Decodes

	// Traced phase: in-process hosting.
	st, err = startStack(p, tmp, blob, tr)
	if err != nil {
		return nil, t, err
	}
	defer st.close()
	srv := server.New(server.Config{CacheBytes: p.cacheMB << 20})
	defer srv.Close()
	var src interface {
		io.ReaderAt
		io.Closer
		Size() int64
	}
	var rr *remote.Reader
	if p.workload == "scan" {
		if rr, err = remote.Open(st.spec, remote.Config{CacheBytes: p.remoteMB << 20}); err != nil {
			return nil, t, err
		}
		src = rr
	} else {
		fs, err := replica.OpenFile(st.path)
		if err != nil {
			return nil, t, err
		}
		src = fs
	}
	ar, err := archive.Open(&timedReaderAt{r: src, tr: tr}, src.Size())
	if err != nil {
		return nil, t, err
	}
	// The read-ahead segment tacd tuned itself to, as its fetches showed.
	if rr != nil {
		if tacdSegment == 0 {
			return nil, t, fmt.Errorf("scan: tacd fetched no segment from the origin")
		}
		rr.Retune(tacdSegment)
	}
	if err := srv.AddReader(archiveName, ar, src); err != nil {
		return nil, t, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, t, err
	}
	hs := &http.Server{Handler: tracedHandler(srv.Handler(), tr)}
	go hs.Serve(ln)
	defer hs.Close()

	g = newGenerator(ln.Addr().String(), o.via, p.items)
	t.add(tallyOf(g.run(p.warm, p.gzipEvery, p.rate)))
	c0, h0 := srv.Cache().Stats(), srv.HealthStats()
	var r0 remote.Stats
	if rr != nil {
		r0 = rr.Stats()
	}
	g.tr = tr
	tr.on.Store(true)
	traced := g.run(p.stream[half:], p.gzipEvery, p.rate)
	spans := tr.take()
	c1, h1 := srv.Cache().Stats(), srv.HealthStats()
	t.add(tallyOf(traced))
	n := float64(len(traced))

	handlers := byName(spans, "server.handler")
	reads := byName(spans, "archive.readat")
	origins := byName(spans, "origin.serve")
	linkByRequest(spans)
	linkByContainment(spans, handlers, reads)
	linkByContainment(spans, reads, origins)

	var hID, hGz, netMs []float64
	for _, i := range handlers {
		h := spans[i]
		if h.Gzip {
			hGz = append(hGz, ms(h.dur()))
		} else {
			hID = append(hID, ms(h.dur()))
		}
		if h.Parent >= 0 {
			netMs = append(netMs, ms(spans[h.Parent].dur()-h.dur()))
		}
	}
	if p.gzipEvery > 0 {
		m.set(pre+"server.handler_p50_ms.identity", quantile(hID, 0.5), "ms")
		m.set(pre+"server.handler_p90_ms.identity", quantile(hID, 0.9), "ms")
		m.set(pre+"server.handler_p50_ms.gzip", quantile(hGz, 0.5), "ms")
		m.set(pre+"server.handler_p90_ms.gzip", quantile(hGz, 0.9), "ms")
	} else {
		m.set(pre+"server.handler_p50_ms", quantile(hID, 0.5), "ms")
		m.set(pre+"server.handler_p90_ms", quantile(hID, 0.9), "ms")
	}
	m.set(pre+"server.net_ms", median(netMs), "ms")
	misses := float64(c1.Misses - c0.Misses)
	m.set(pre+"server.cache_hit_ratio", float64(c1.Hits-c0.Hits)/max(1, float64(c1.Hits-c0.Hits)+misses), "ratio")
	m.set(pre+"server.evictions", float64(c1.Evictions-c0.Evictions), "count")
	m.set(pre+"server.self_ms", selfMs(spans, handlers)/n, "ms")
	m.set(pre+"trace.overhead_p50_ratio", median(latencies(traced))/sum.p50, "ratio")
	if p.workload == "hot" {
		m.set(pre+"server.decodes", float64(c1.Decodes-c0.Decodes), "count")
		return spans, t, nil
	}

	m.set(pre+"server.decodes_per_miss", float64(c1.Decodes-c0.Decodes)/max(1, misses), "ratio")
	m.set(pre+"server.retries", float64(h1.Retries-h0.Retries), "count")
	var readMs, readBytes []float64
	var sumBytes float64
	for _, i := range reads {
		readMs = append(readMs, ms(spans[i].dur()))
		readBytes = append(readBytes, float64(spans[i].Bytes))
		sumBytes += float64(spans[i].Bytes)
	}
	m.set(pre+"archive.readat_ms", mean(readMs), "ms")
	m.set(pre+"archive.readat_bytes_per_req", sumBytes/n, "B")
	m.set(pre+"archive.frame_bytes", mean(readBytes), "B")
	m.set(pre+"archive.self_ms", selfMs(spans, reads)/n, "ms")
	r1 := rr.Stats()
	rmiss := float64(r1.Misses - r0.Misses)
	m.set(pre+"remote.requests_per_req", float64(r1.Requests-r0.Requests)/n, "ratio")
	m.set(pre+"remote.fetch_amplification", float64(r1.BytesFetched-r0.BytesFetched)/max(1, float64(r1.BytesRead-r0.BytesRead)), "ratio")
	m.set(pre+"remote.hit_ratio", float64(r1.Hits-r0.Hits)/max(1, float64(r1.Hits-r0.Hits)+rmiss), "ratio")
	m.set(pre+"remote.fills_per_miss", float64(r1.Fills-r0.Fills)/max(1, rmiss), "ratio")
	var originUs []float64
	for _, i := range origins {
		originUs = append(originUs, float64(spans[i].dur())/1e3)
	}
	m.set(pre+"origin.serve_us", mean(originUs), "us")

	// Serial replay of the frames the traced phase read, through the
	// archive reader and through the sz engine on the raw frame bytes.
	frames := framesRead(ar, spans, reads)
	if len(frames) == 0 {
		return nil, t, fmt.Errorf("scan: the traced phase read no frames")
	}
	local, err := tac.OpenArchive(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return nil, t, err
	}
	batchUs, err := replay(frames, func(f frameRead) error {
		_, err := local.DecodeBatch(f.key.member, f.key.level, f.key.batch)
		return err
	})
	if err != nil {
		return nil, t, err
	}
	dec := sz.NewDecoder[float32]()
	decodeUs, err := replay(frames, func(f frameRead) error {
		_, err := dec.DecompressBlocks(blob[f.off : f.off+f.n])
		return err
	})
	if err != nil {
		return nil, t, err
	}
	entropyUs, err := replay(frames, func(f frameRead) error {
		return sz.ExtractCodesInto(dec, blob[f.off:f.off+f.n])
	})
	if err != nil {
		return nil, t, err
	}
	var decoded int64
	for _, f := range frames {
		decoded += f.decoded
	}
	m.set(pre+"archive.decode_batch_us", batchUs, "us")
	m.set(pre+"sz.decode_us", decodeUs, "us")
	m.set(pre+"sz.entropy_us", entropyUs, "us")
	m.set(pre+"sz.predict_us", decodeUs-entropyUs, "us")
	m.set(pre+"sz.decode_mb_s", float64(decoded)/float64(len(frames))/decodeUs, "MB/s")
	// Share of tacd's CPU the decodes explain: decodes × per-frame decode
	// time ÷ (requests × CPU per request), all from the untraced phase.
	m.set(pre+"predicted_decode_share", float64(tacdDecodes)*batchUs/1e3/(float64(half)*sum.cpuMs), "ratio")
	return spans, t, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// byName returns the indices of the spans with the given name, ordered by
// start time.
func byName(spans []span, name string) []int {
	var out []int
	for i, s := range spans {
		if s.Name == name {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return spans[out[a]].Start.Before(spans[out[b]].Start) })
	return out
}

// linkByRequest makes each handler span a child of its client span.
func linkByRequest(spans []span) {
	idx := map[int]int{}
	for i, s := range spans {
		if s.Name == "client" {
			idx[s.Req] = i
		}
	}
	for i := range spans {
		if spans[i].Name == "server.handler" {
			if p, ok := idx[spans[i].Req]; ok {
				spans[i].Parent = p
			}
		}
	}
}

// linkByContainment makes each child span a child of the latest-starting
// parent span whose interval contains it. The program passes no request
// context below the HTTP handler (and the remote reader issues its own
// requests), so containment is the only link; with at most nproc
// requests in flight it is rarely ambiguous.
func linkByContainment(spans []span, parents, children []int) {
	for _, c := range children {
		cs := spans[c]
		// parents is ordered by start: the last one starting before the
		// child is the best candidate; walk back to the first that
		// contains it.
		k := sort.Search(len(parents), func(i int) bool { return spans[parents[i]].Start.After(cs.Start) })
		for j := k - 1; j >= 0 && j >= k-8; j-- {
			ps := spans[parents[j]]
			if !ps.End.Before(cs.End) {
				spans[c].Parent = parents[j]
				break
			}
		}
	}
}

// selfMs sums, over the given spans, each span's duration minus the part
// of its interval its child spans cover.
func selfMs(spans []span, of []int) float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var total time.Duration
	for _, i := range of {
		total += spans[i].dur() - covered(kids[i])
	}
	return ms(total)
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	sort.Slice(ss, func(a, b int) bool { return ss[a].Start.Before(ss[b].Start) })
	var total time.Duration
	var end time.Time
	for _, s := range ss {
		start := s.Start
		if start.Before(end) {
			start = end
		}
		if s.End.After(start) {
			total += s.End.Sub(start)
			end = s.End
		}
	}
	return total
}

// frameRead is one distinct frame the traced phase read.
type frameRead struct {
	key     frameKey
	off, n  int64
	decoded int64
}

// framesRead maps the traced reads back to the frames they fetched.
func framesRead(r *archive.Reader, spans []span, reads []int) []frameRead {
	byOff := map[int64]frameRead{}
	for mi, m := range r.Members() {
		for li := range m.Levels {
			idx := &m.Levels[li]
			for b, rec := range idx.Batches {
				byOff[rec.Offset] = frameRead{
					key: frameKey{mi, li, b}, off: rec.Offset, n: rec.Length,
					decoded: decodedBytes(idx, b),
				}
			}
		}
	}
	seen := map[int64]bool{}
	var out []frameRead
	for _, i := range reads {
		off := spans[i].Off
		if f, ok := byOff[off]; ok && !seen[off] {
			seen[off] = true
			out = append(out, f)
		}
	}
	return out
}

// replay runs fn over every frame three times and returns the median
// per-frame time in microseconds.
func replay(frames []frameRead, fn func(frameRead) error) (float64, error) {
	var per []float64
	for k := 0; k < 3; k++ {
		start := time.Now()
		for _, f := range frames {
			if err := fn(f); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start))/1e3/float64(len(frames)))
	}
	return median(per), nil
}
