package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro"
)

// setupRepeats is how many times a run sets up (loads the campaign, or
// starts tacd); setup_s is the median.
const setupRepeats = 9

// writeLoop is the outcome of repeated campaign passes through both write
// paths.
type writeLoop struct {
	passes     int         // timed passes
	opMs       [][]float64 // per pass and snapshot: Compress + AddDataset
	tacMBs     []float64   // per pass, input MB/s through tac.Encoder.Compress
	archiveMBs []float64   // per pass, input MB/s through AddDataset + Close
	tacCPUMBs  []float64   // per pass, input MB per CPU-second of Compress
	archCPUMBs []float64   // per pass, input MB per CPU-second of AddDataset + Close
	cpuSec     []float64   // per pass, process CPU
	blobs      [][]byte    // first pass: the TAC payloads
	tacBytes   int64       // first pass: summed TAC payload bytes
	archive    []byte      // first pass: the committed archive
}

// runWrites pushes the campaign through tac.Encoder.Compress and
// archive.Writer.AddDataset, one snapshot at a time (a closed loop with
// one caller). A first, untimed pass warms the process up; then timed
// passes follow, at least minPasses and at least dur of timed work. Every
// pass must reproduce the first byte for byte; the caller checks the
// first pass with verify once it has read peak memory.
func runWrites(snaps []*tac.Dataset, cfg tac.Config, inputBytes int64, minPasses int, dur time.Duration) (writeLoop, tally, error) {
	var wl writeLoop
	var t tally
	var firstCRCs []uint32
	var archiveCRC uint32
	var elapsed time.Duration
	enc := tac.NewEncoder()
	var buf bytes.Buffer
	for pass := 0; pass == 0 || wl.passes < minPasses || elapsed < dur; pass++ {
		blobs := make([][]byte, len(snaps))
		buf.Reset()
		aw, err := tac.NewArchive(&buf)
		if err != nil {
			return wl, t, err
		}
		cpu0 := selfCPU()
		var tacSec, archSec, tacCPU, archCPU float64
		opMs := make([]float64, len(snaps))
		for i, ds := range snaps {
			t0, c0 := time.Now(), selfCPU()
			blob, err := enc.Compress(ds, cfg)
			t1, c1 := time.Now(), selfCPU()
			if err == nil {
				err = aw.AddDataset(ds, cfg)
			}
			t2, c2 := time.Now(), selfCPU()
			if err != nil {
				return wl, t, fmt.Errorf("writing %s/%s: %w", ds.Name, ds.Field, err)
			}
			tacSec += t1.Sub(t0).Seconds()
			archSec += t2.Sub(t1).Seconds()
			tacCPU += c1 - c0
			archCPU += c2 - c1
			opMs[i] = ms(t2.Sub(t0))
			blobs[i] = blob
		}
		t0, c0 := time.Now(), selfCPU()
		if err := aw.Close(); err != nil {
			return wl, t, fmt.Errorf("committing the archive: %w", err)
		}
		archSec += time.Since(t0).Seconds()
		archCPU += selfCPU() - c0
		if pass > 0 {
			wl.cpuSec = append(wl.cpuSec, selfCPU()-cpu0)
			wl.opMs = append(wl.opMs, opMs)
			elapsed += time.Duration((tacSec + archSec) * float64(time.Second))
			wl.tacMBs = append(wl.tacMBs, float64(inputBytes)/1e6/tacSec)
			wl.archiveMBs = append(wl.archiveMBs, float64(inputBytes)/1e6/archSec)
			wl.tacCPUMBs = append(wl.tacCPUMBs, float64(inputBytes)/1e6/tacCPU)
			wl.archCPUMBs = append(wl.archCPUMBs, float64(inputBytes)/1e6/archCPU)
			wl.passes++
		}

		t.attempted += int64(len(snaps)) + 1
		if pass == 0 {
			wl.blobs = blobs
			wl.archive = bytes.Clone(buf.Bytes())
			archiveCRC = crc32.ChecksumIEEE(wl.archive)
			for _, b := range blobs {
				wl.tacBytes += int64(len(b))
				firstCRCs = append(firstCRCs, crc32.ChecksumIEEE(b))
			}
		} else {
			for i, b := range blobs {
				if crc32.ChecksumIEEE(b) != firstCRCs[i] {
					t.failed++
				}
			}
			if crc32.ChecksumIEEE(buf.Bytes()) != archiveCRC {
				t.failed++
			}
		}
	}
	return wl, t, nil
}

// verify decodes every TAC payload and archive member of the first pass
// and counts the snapshots whose reconstruction is missing or breaks the
// per-level error bound; a damaged archive fails every snapshot.
func (wl *writeLoop) verify(snaps []*tac.Dataset, cfg tac.Config) int64 {
	var bad int64
	for i, ds := range snaps {
		got, err := tac.Decompress(wl.blobs[i])
		if err != nil || !withinBound(ds, got, cfg) {
			bad++
		}
	}
	r, err := tac.OpenArchive(bytes.NewReader(wl.archive), int64(len(wl.archive)))
	if err != nil || len(r.Members()) != len(snaps) {
		return bad + int64(len(snaps))
	}
	for i, ds := range snaps {
		got, err := r.Extract(i)
		m := r.Members()[i]
		if err != nil || m.Name != ds.Name || m.Field != ds.Field || !withinBound(ds, got, cfg) {
			bad++
		}
	}
	return bad
}

// withinBound reports whether got has want's structure and every stored
// value within the level's resolved error bound.
func withinBound(want, got *tac.Dataset, cfg tac.Config) bool {
	if len(got.Levels) != len(want.Levels) {
		return false
	}
	for li, wl := range want.Levels {
		gl := got.Levels[li]
		if gl.Grid.Dim != wl.Grid.Dim || !gl.Mask.Equal(wl.Mask) {
			return false
		}
		limit := cfg.LevelEB(li, wl) * (1 + 1e-6)
		a, b := wl.MaskedValues(nil), gl.MaskedValues(nil)
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if math.Abs(float64(a[k])-float64(b[k])) > limit {
				return false
			}
		}
	}
	return true
}

// writeMetrics reports the write-path figures every workload shares. The
// throughputs are per CPU-second (median over the timed passes): CPU time
// does not count the time other tenants of a shared host steal, which
// moved wall-clock MB/s by up to half between runs on the 2-vCPU
// reference box. Wall-clock MB/s (upper quartile over the passes, since
// interference only ever slows a pass) goes to the fingerprint.
func writeMetrics(m metrics, fp map[string]any, wl writeLoop, inputBytes int64) {
	fp["tac_mb_s"] = quantile(wl.tacMBs, 0.75)
	fp["archive_mb_s"] = quantile(wl.archiveMBs, 0.75)
	m.set("tac_mb_per_cpu_s", median(wl.tacCPUMBs), "MB/cpu-s")
	m.set("archive_mb_per_cpu_s", median(wl.archCPUMBs), "MB/cpu-s")
	m.set("tac_bytes_per_byte", float64(wl.tacBytes)/float64(inputBytes), "ratio")
	m.set("archive_bytes_per_byte", float64(len(wl.archive))/float64(inputBytes), "ratio")
}

// runWrite is the write workload: setup is the campaign parse, then the
// closed loop runs for the measured seconds.
func runWrite(o options, c *campaign, m metrics, fp map[string]any) (tally, error) {
	snaps, setup, err := c.timedLoads(setupRepeats)
	if err != nil {
		return tally{}, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return tally{}, err
	}
	cfg := codecConfig(nproc())
	wl, t, err := runWrites(snaps, cfg, c.inputBytes, 1, o.duration())
	if err != nil {
		return t, err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return t, err
	}
	t.failed += wl.verify(snaps, cfg)
	// Over every timed pass: CPU per snapshot written, and the latency of
	// each Compress + AddDataset.
	var ops []float64
	var cpu float64
	for pass := range wl.passes {
		ops = append(ops, wl.opMs[pass]...)
		cpu += wl.cpuSec[pass]
	}
	m.set("setup_s", setup, "s")
	fp["p50_ms"] = quantile(ops, 0.5)
	fp["p90_ms"] = quantile(ops, 0.9)
	m.set("cpu_ms_per_req", cpu*1000/float64(len(ops)), "ms")
	m.set("peak_rss_mb", rss, "MB")
	writeMetrics(m, fp, wl, c.inputBytes)
	return t, nil
}
