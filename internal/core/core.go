// Package core implements TAC, the paper's primary contribution: level-wise
// 3D error-bounded lossy compression of tree-structured AMR data with a
// density-driven hybrid of three pre-process strategies (Sec. 3):
//
//   - density < T1 (50%): OpST — optimized sparse-tensor extraction of
//     maximal non-empty cubes (Algorithm 1);
//   - T1 ≤ density < T2 (60%): AKDTree — adaptive k-d tree extraction
//     (Algorithm 2);
//   - density ≥ T2: GSP — ghost-shell padding of the few empty blocks
//     (Algorithm 3), compressing the whole level grid.
//
// Extracted sub-blocks of equal shape are merged into one multi-block SZ
// stream (the paper's "4D arrays"). Per-level error bounds support the
// adaptive tuning of Sec. 4.5, and the optional Sec. 4.4 outer switch hands
// the entire dataset to the 3D baseline when the finest level is dense.
//
// Every extraction is a pure function of the occupancy mask, which the
// container stores; decompression replays it, so no coordinates are
// serialized.
//
// Both directions run on the pooled sz engine: one-shot TAC values draw
// Encoder/Decoder scratch from process-wide pools, and Engine pins a
// private pair for single-goroutine repeated-snapshot campaigns.
package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/amr"
	"repro/internal/baseline"
	"repro/internal/bitio"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/preprocess"
	"repro/internal/sz"
)

// ID is TAC's codec identifier in the shared container format.
const ID = 1

// encoders and decoders hold warm sz scratch — including the Huffman
// encode arenas and the decode-side lookup tables — for the one-shot
// entry points, so even codec.Codec-interface callers stop paying
// per-call allocation once the process is warm.
var (
	encoders sz.EncoderPool[amr.Value]
	decoders sz.DecoderPool[amr.Value]
)

// TAC is the hybrid level-wise 3D AMR codec. The zero value is ready to
// use; compression configuration travels in codec.Config.
type TAC struct {
	// Workers bounds the decompress-side fan-out (levels and block batches
	// decode concurrently): -1 uses all CPUs, 0 or 1 decodes serially, n>1
	// uses n workers. The compress side reads codec.Config.Workers instead,
	// which arrives with the dataset.
	Workers int
}

// Name implements codec.Codec.
func (TAC) Name() string { return "TAC" }

// PickStrategy applies the density filter of Sec. 3.4.
func PickStrategy(density float64, cfg codec.Config) codec.Strategy {
	cfg = cfg.WithDefaults()
	if cfg.Strategy != codec.Auto {
		return cfg.Strategy
	}
	switch {
	case density < cfg.T1:
		return codec.OpST
	case density < cfg.T2:
		return codec.AKD
	default:
		return codec.GSP
	}
}

// resolveWorkers maps the Workers convention (-1 all CPUs, ≤1 serial) to a
// concrete goroutine count.
func resolveWorkers(w int) int {
	switch {
	case w == -1:
		return runtime.GOMAXPROCS(0)
	case w > 1:
		return w
	default:
		return 1
	}
}

// Compress implements codec.Codec.
func (t TAC) Compress(ds *amr.Dataset, cfg codec.Config) ([]byte, error) {
	enc := encoders.Get()
	defer encoders.Put(enc)
	return compress(enc, ds, cfg)
}

func compress(enc *sz.Encoder[amr.Value], ds *amr.Dataset, cfg codec.Config) ([]byte, error) {
	cfg = cfg.WithDefaults()
	if cfg.AdaptiveBaseline && ds.Levels[0].Density() >= cfg.T2 {
		// Sec. 4.4: a dense finest level means the dataset is close to
		// uniform resolution; the 3D baseline then wins on smoothness and
		// redundancy is negligible.
		return baseline.Uniform3D{}.Compress(ds, cfg)
	}
	var body []byte
	for li, l := range ds.Levels {
		st := PickStrategy(l.Density(), cfg)
		sec, err := compressLevel(enc, l, st, cfg.LevelEB(li, l), cfg)
		if err != nil {
			return nil, fmt.Errorf("core: level %d (%s): %w", li, st, err)
		}
		body = bitio.AppendBytes(body, sec)
	}
	return codec.EncodeContainer(ID, codec.SkeletonOf(ds), body)
}

// Decompress implements codec.Codec. It transparently handles payloads the
// AdaptiveBaseline switch routed to the 3D baseline. With Workers set, the
// level sections fan out across goroutines and each level's block batches
// decode in parallel.
func (t TAC) Decompress(blob []byte) (*amr.Dataset, error) {
	return decompress(blob, resolveWorkers(t.Workers), nil)
}

// decompress is the shared implementation behind TAC.Decompress and
// Engine.Decompress: container sniffing, section splitting, and the
// optional level fan-out. pinned, when non-nil, serves the serial path;
// parallel paths always borrow per-level decoders from the pool.
func decompress(blob []byte, workers int, pinned *sz.Decoder[amr.Value]) (*amr.Dataset, error) {
	if _, _, err := codec.DecodeContainer(blob, baseline.IDUniform3D); err == nil {
		return baseline.Uniform3D{}.Decompress(blob)
	}
	sk, body, err := codec.DecodeContainer(blob, ID)
	if err != nil {
		return nil, err
	}
	ds := sk.NewDataset()
	secs := make([][]byte, len(ds.Levels))
	for li := range ds.Levels {
		sec, n, err := bitio.Bytes(body)
		if err != nil {
			return nil, fmt.Errorf("core: level %d section: %w", li, err)
		}
		body = body[n:]
		secs[li] = sec
	}
	if workers == 1 || len(ds.Levels) == 1 {
		dec := pinned
		if dec == nil {
			dec = decoders.Get()
			defer decoders.Put(dec)
		}
		for li, l := range ds.Levels {
			if err := decompressLevel(dec, l, secs[li], workers); err != nil {
				return nil, fmt.Errorf("core: level %d: %w", li, err)
			}
		}
		return ds, nil
	}
	// Split the worker budget between the level fan-out and each level's
	// batch fan-out so total decode goroutines never exceed workers.
	levelWorkers := min(workers, len(ds.Levels))
	inner := workers / levelWorkers
	sem := make(chan struct{}, levelWorkers)
	errs := make([]error, len(ds.Levels))
	var wg sync.WaitGroup
	for li, l := range ds.Levels {
		wg.Add(1)
		sem <- struct{}{}
		go func(li int, l *amr.Level) {
			defer wg.Done()
			defer func() { <-sem }()
			dec := decoders.Get()
			defer decoders.Put(dec)
			errs[li] = decompressLevel(dec, l, secs[li], inner)
		}(li, l)
	}
	wg.Wait()
	for li, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: level %d: %w", li, err)
		}
	}
	return ds, nil
}

// Engine is a reusable TAC codec instance: it pins one sz Encoder/Decoder
// pair, so a single-goroutine campaign over many snapshots (archive
// writing, benchmark sweeps, a serving loop) reuses all compression scratch
// deterministically instead of going through the process-wide pools. The
// zero value is ready to use (scratch materializes on first call); an
// Engine is not safe for concurrent use.
type Engine struct {
	// Workers mirrors TAC.Workers for the decompress side.
	Workers int

	enc *sz.Encoder[amr.Value]
	dec *sz.Decoder[amr.Value]
}

// NewEngine returns an Engine; workers bounds the decompress-side fan-out
// exactly like TAC.Workers.
func NewEngine(workers int) *Engine {
	return &Engine{Workers: workers, enc: sz.NewEncoder[amr.Value](), dec: sz.NewDecoder[amr.Value]()}
}

// init materializes the pinned scratch for zero-value Engines.
func (e *Engine) init() {
	if e.enc == nil {
		e.enc = sz.NewEncoder[amr.Value]()
	}
	if e.dec == nil {
		e.dec = sz.NewDecoder[amr.Value]()
	}
}

// Name implements codec.Codec.
func (e *Engine) Name() string { return "TAC" }

// Compress is TAC.Compress on the engine's pinned scratch.
func (e *Engine) Compress(ds *amr.Dataset, cfg codec.Config) ([]byte, error) {
	e.init()
	return compress(e.enc, ds, cfg)
}

// Decompress is TAC.Decompress on the engine's pinned scratch. The pinned
// decoder serves the serial path; a parallel fan-out draws per-level
// decoders from the process pool instead.
func (e *Engine) Decompress(blob []byte) (*amr.Dataset, error) {
	e.init()
	return decompress(blob, resolveWorkers(e.Workers), e.dec)
}

// extract runs the chosen sparse extraction over the mask.
func extract(st codec.Strategy, mask *grid.Mask) ([]kdtree.Box, error) {
	switch st {
	case codec.NaST:
		return preprocess.NaST(mask), nil
	case codec.OpST:
		return preprocess.OpST(mask), nil
	case codec.AKD:
		boxes, _ := kdtree.Adaptive(mask)
		return boxes, nil
	case codec.ClassicKD:
		boxes, _ := kdtree.Classic(mask)
		return boxes, nil
	default:
		return nil, fmt.Errorf("core: strategy %s is not a sparse extraction", st)
	}
}

// CompressLevel compresses one AMR level with an explicit strategy and
// absolute error bound. It is the unit the Fig. 7/11/12 experiments
// measure; TAC.Compress calls it per level.
func CompressLevel(l *amr.Level, st codec.Strategy, eb float64, cfg codec.Config) ([]byte, error) {
	enc := encoders.Get()
	defer encoders.Put(enc)
	return compressLevel(enc, l, st, eb, cfg)
}

func compressLevel(enc *sz.Encoder[amr.Value], l *amr.Level, st codec.Strategy, eb float64, cfg codec.Config) ([]byte, error) {
	var out []byte
	out = append(out, byte(st))
	opts := sz.Options{ErrorBound: eb, QuantBits: cfg.QuantBits, DisableLossless: cfg.DisableLossless}
	switch st {
	case codec.ZF, codec.GSP:
		g := l.Grid.Clone()
		preprocess.ZeroUnmasked(g, l.Mask, l.UnitBlock)
		if st == codec.GSP {
			preprocess.GSP(g, l.Mask, l.UnitBlock, cfg.GSP)
		}
		blob, _, err := enc.Compress3D(g, opts)
		if err != nil {
			return nil, err
		}
		return bitio.AppendBytes(out, blob), nil
	case codec.NaST, codec.OpST, codec.AKD, codec.ClassicKD:
		boxes, err := extract(st, l.Mask)
		if err != nil {
			return nil, err
		}
		groups := preprocess.GroupBoxes(boxes)
		out = bitio.AppendUvarint(out, uint64(len(groups)))
		for _, grp := range groups {
			grids := preprocess.Gather(l.Grid, grp.Boxes, l.UnitBlock)
			var blob []byte
			var err error
			if cfg.Workers > 1 || cfg.Workers == -1 {
				blob, _, err = enc.CompressBlocksParallel(grids, opts, cfg.Workers)
			} else {
				blob, _, err = enc.CompressBlocks(grids, opts)
			}
			if err != nil {
				return nil, fmt.Errorf("group %v: %w", grp.Shape, err)
			}
			out = bitio.AppendBytes(out, blob)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("core: cannot compress with strategy %s", st)
	}
}

// DecompressLevel inverts CompressLevel, filling l.Grid (unmasked blocks
// are zero). It decodes serially; DecompressLevelWorkers fans the block
// batches out.
func DecompressLevel(l *amr.Level, sec []byte) error {
	return DecompressLevelWorkers(l, sec, 1)
}

// DecompressLevelWorkers is DecompressLevel with the level's block batches
// decoded by up to workers goroutines (-1 means all CPUs).
func DecompressLevelWorkers(l *amr.Level, sec []byte, workers int) error {
	dec := decoders.Get()
	defer decoders.Put(dec)
	return decompressLevel(dec, l, sec, resolveWorkers(workers))
}

func decompressLevel(dec *sz.Decoder[amr.Value], l *amr.Level, sec []byte, workers int) error {
	if len(sec) == 0 {
		return fmt.Errorf("core: empty level section")
	}
	st := codec.Strategy(sec[0])
	sec = sec[1:]
	switch st {
	case codec.ZF, codec.GSP:
		blob, _, err := bitio.Bytes(sec)
		if err != nil {
			return err
		}
		// Decode straight into the level grid (every cell is overwritten;
		// the dims check doubles as the old geometry validation) — the
		// whole-level staging grid and its copy are gone.
		if err := dec.Decompress3DInto(l.Grid, blob); err != nil {
			return err
		}
		if st == codec.GSP {
			// The padding positions are implied by the mask, so padded
			// cells are restored to exact zeros — the "saved padding
			// information" of Algorithm 3 with no explicit metadata.
			preprocess.ZeroUnmasked(l.Grid, l.Mask, l.UnitBlock)
		}
		// ZF is the naive strawman of Sec. 3.1: it ships no knowledge of
		// the empty regions, so their reconstructed near-zero noise stays.
		return nil
	case codec.NaST, codec.OpST, codec.AKD, codec.ClassicKD:
		boxes, err := extract(st, l.Mask)
		if err != nil {
			return err
		}
		groups := preprocess.GroupBoxes(boxes)
		ngroups, n, err := bitio.Uvarint(sec)
		if err != nil {
			return err
		}
		sec = sec[n:]
		if int(ngroups) != len(groups) {
			return fmt.Errorf("core: payload has %d groups, mask implies %d", ngroups, len(groups))
		}
		for _, grp := range groups {
			blob, n, err := bitio.Bytes(sec)
			if err != nil {
				return fmt.Errorf("group %v: %w", grp.Shape, err)
			}
			sec = sec[n:]
			var grids []*grid.Grid3[amr.Value]
			if workers > 1 {
				grids, err = dec.DecompressBlocksParallel(blob, workers)
			} else {
				grids, err = dec.DecompressBlocks(blob)
			}
			if err != nil {
				return fmt.Errorf("group %v: %w", grp.Shape, err)
			}
			if err := preprocess.Scatter(l.Grid, grp.Boxes, l.UnitBlock, grids); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("core: unknown strategy byte %d", st)
	}
}

var _ codec.Codec = TAC{}
var _ codec.Codec = (*Engine)(nil)
