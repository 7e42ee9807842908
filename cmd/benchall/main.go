// Command benchall regenerates every table and figure of the TAC paper's
// evaluation section on the synthetic datasets and prints them in paper
// order. See EXPERIMENTS.md for the paper-vs-measured record.
//
// With -json, it also writes a machine-readable record of the run —
// per-exhibit wall times plus the seekable-archive throughput numbers —
// for the performance trajectory across PRs (e.g. BENCH_archive.json).
//
// Usage:
//
//	benchall [-scale 4] [-only fig14] [-json BENCH_archive.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// report is the -json output schema.
type report struct {
	Scale      int                               `json:"scale"`
	GoMaxProcs int                               `json:"gomaxprocs"`
	Exhibits   []exhibitTiming                   `json:"exhibits"`
	Archive    experiments.ArchiveBenchResult    `json:"archive"`
	Engine     experiments.EngineBenchResult     `json:"engine"`
	Entropy    experiments.EntropyBenchResult    `json:"entropy"`
	SmallFrame experiments.SmallFrameBenchResult `json:"small_frame"`
	Predict    experiments.PredictBenchResult    `json:"predict"`
	Serve      experiments.ServeBenchResult      `json:"serve"`
	Ingest     experiments.IngestBenchResult     `json:"ingest"`
	Temporal   experiments.TemporalBenchResult   `json:"temporal"`
	Integrity  experiments.IntegrityBenchResult  `json:"integrity"`
	Remote     experiments.RemoteBenchResult     `json:"remote"`
	TotalSecs  float64                           `json:"total_seconds"`
}

type exhibitTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchall: ")
	scale := flag.Int("scale", experiments.DefaultScale, "resolution divisor vs the paper (power of two, 1-16)")
	only := flag.String("only", "", "run a single exhibit (e.g. table2, fig15)")
	list := flag.Bool("list", false, "list exhibit IDs and exit")
	jsonPath := flag.String("json", "", "write machine-readable results (timings + archive throughput) to this path")
	flag.Parse()

	if *list {
		for _, ex := range experiments.Exhibits() {
			fmt.Printf("%-8s %s\n", ex.ID, ex.Desc)
		}
		return
	}
	env := experiments.NewEnv(*scale)
	start := time.Now()
	rep := report{Scale: env.Scale, GoMaxProcs: runtime.GOMAXPROCS(0)}
	timed := func(id string, d time.Duration) {
		rep.Exhibits = append(rep.Exhibits, exhibitTiming{ID: id, Seconds: d.Seconds()})
	}
	if *only != "" {
		t0 := time.Now()
		if err := experiments.RunByID(os.Stdout, env, *only); err != nil {
			log.Fatal(err)
		}
		timed(*only, time.Since(t0))
	} else if err := experiments.RunAllTimed(os.Stdout, env, timed); err != nil {
		log.Fatal(err)
	}

	if *jsonPath != "" {
		arch, err := experiments.ArchiveBench(env)
		if err != nil {
			log.Fatalf("archive bench: %v", err)
		}
		rep.Archive = arch
		eng, err := experiments.EngineBench(env)
		if err != nil {
			log.Fatalf("engine bench: %v", err)
		}
		rep.Engine = eng
		ent, err := experiments.EntropyBench(env)
		if err != nil {
			log.Fatalf("entropy bench: %v", err)
		}
		rep.Entropy = ent
		sf, err := experiments.SmallFrameBench(env)
		if err != nil {
			log.Fatalf("small-frame bench: %v", err)
		}
		rep.SmallFrame = sf
		pred, err := experiments.PredictBench(env)
		if err != nil {
			log.Fatalf("predict bench: %v", err)
		}
		rep.Predict = pred
		srv, err := experiments.ServeBench(env)
		if err != nil {
			log.Fatalf("serve bench: %v", err)
		}
		rep.Serve = srv
		ing, err := experiments.IngestBench(env)
		if err != nil {
			log.Fatalf("ingest bench: %v", err)
		}
		rep.Ingest = ing
		tmp, err := experiments.TemporalBench(env)
		if err != nil {
			log.Fatalf("temporal bench: %v", err)
		}
		rep.Temporal = tmp
		integ, err := experiments.IntegrityBench(env)
		if err != nil {
			log.Fatalf("integrity bench: %v", err)
		}
		rep.Integrity = integ
		rem, err := experiments.RemoteBench(env)
		if err != nil {
			log.Fatalf("remote bench: %v", err)
		}
		rep.Remote = rem
		rep.TotalSecs = time.Since(start).Seconds()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n[wrote %s: archive write %.1f MB/s, member read %.1f MB/s, level read %.1f%%, ROI read %.1f%% of archive]\n",
			*jsonPath, arch.WriteMBps, arch.ExtractMemberMBps,
			100*arch.ExtractLevelFraction, 100*arch.ExtractRegionFraction)
		fmt.Printf("[engine: compress %.0f allocs/op %.1f MB/s; decompress %.1f → %.1f MB/s (%.2fx with Workers=-1)]\n",
			eng.CompressAllocsPerOp, eng.CompressMBps,
			eng.DecompressSerialMBps, eng.DecompressParallelMBps, eng.DecompressSpeedup)
		fmt.Printf("[entropy: %d codes (%d distinct), huffman encode %.1f MB/s, decode %.1f MB/s]\n",
			ent.Symbols, ent.DistinctSymbols, ent.EncodeMBps, ent.DecodeMBps)
		fmt.Printf("[small frames: %d frames of %.0f symbols (%.0f B), codebook %d B + body %d B, huffman encode %.1f MB/s, decode %.1f MB/s, frame decode %.1f MB/s]\n",
			sf.Frames, sf.SymbolsPerFrame, sf.FrameBytes, sf.HeaderBytes, sf.BodyBytes,
			sf.EncodeMBps, sf.DecodeMBps, sf.FrameDecodeMBps)
		for _, p := range sf.Sweep {
			fmt.Printf("[sweep %-8s: tac %d B (%d without DEFLATE), archive %d B (%d without DEFLATE) of %d B]\n",
				p.Bound, p.TacBytes, p.TacBytesNoLossless, p.ArchiveBytes, p.ArchiveBytesNoLossless, p.OriginalBytes)
		}
		fmt.Printf("[predict: %d cells, lorenzo encode %.1f MB/s, decode %.1f MB/s]\n",
			pred.Cells, pred.EncodeMBps, pred.DecodeMBps)
		fmt.Printf("[serve: %d reqs x%d, %.0f req/s, %.1f MB/s served, cache hit ratio %.2f (%d decodes)]\n",
			srv.Requests, srv.Concurrency, srv.RequestsPerSec, srv.ServedMBps, srv.CacheHitRatio, srv.Decodes)
		fmt.Printf("[ingest: %d snapshots, %.1f MB/s ingested (%.1f snap/s) with %d readers pulling %.1f MB/s, gen %d, reopened %d members]\n",
			ing.Snapshots, ing.IngestMBps, ing.SnapshotsPerS, ing.Readers, ing.ReadMBps, ing.Generation, ing.ReopenedMember)
		fmt.Printf("[temporal: %d snapshots K=%d, CR %.1f intra -> %.1f delta (%.2fx), write %.1f/%.1f MB/s, chain-%d extract %.1f vs %.1f MB/s, max err %.3g]\n",
			tmp.Snapshots, tmp.Keyframe, tmp.IntraRatio, tmp.DeltaRatio, tmp.Improvement,
			tmp.IntraWriteMBps, tmp.DeltaWriteMBps, tmp.ChainDepth,
			tmp.DeltaExtractMBps, tmp.IntraExtractMBps, tmp.MaxErr)
		fmt.Printf("[integrity: %d frames in %d B, verified read %.1f MB/s, +scrub %.2fx, scrub %.1f MB/s, flips %d/%d detected]\n",
			integ.Frames, integ.ArchiveBytes, integ.ReadMBps,
			integ.VerifyOverhead, integ.ScrubMBps, integ.FlipsDetected, integ.FlipsInjected)
		match := "MISMATCH"
		if integ.RepairedReadsMatch {
			match = "byte-identical"
		}
		fmt.Printf("[repair: %d frames respliced at %.1f MB/s (%s), failover read overhead %.2fx]\n",
			integ.RepairFrames, integ.RepairMBps, match, integ.FailoverOverhead)
		rmatch := "MISMATCH"
		if rem.RemoteLocalMatch {
			rmatch = "byte-identical"
		}
		fmt.Printf("[remote: %d KiB segments, level fetch %.1f%%, ROI fetch %.1f%% of archive, extract cold %.1f -> warm %.1f MB/s, hit ratio %.2f (%s)]\n",
			rem.SegmentBytes>>10, 100*rem.LevelFetchFraction, 100*rem.RegionFetchFraction,
			rem.ColdExtractMBps, rem.WarmExtractMBps, rem.HitRatio, rmatch)
	}
	fmt.Printf("\n[benchall completed in %v at scale 1/%d]\n", time.Since(start).Round(time.Second), *scale)
}
