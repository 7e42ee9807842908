package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/sim"
	"repro/internal/sz"
)

// SmallFrameBenchResult is the entropy stage measured in the regime the
// archive runs in: TACA frames of DefaultBatchBlocks unit blocks (about
// 1.6 KB compressed each), where codebook parse and table setup weigh as
// much as the symbol loop. It splits the code section into codebook
// header and symbol body, times Huffman encode/decode and the full
// frame decode over every frame, and sweeps the error bound for the
// campaign's TAC and archive bytes with and without the lossless stage.
type SmallFrameBenchResult struct {
	Frames          int     `json:"frames"`
	SymbolsPerFrame float64 `json:"symbols_per_frame"`
	FrameBytes      float64 `json:"mean_frame_bytes"`
	// HeaderBytes and BodyBytes split the frames' Huffman code sections
	// (before any DEFLATE) into codebook header and symbol body.
	HeaderBytes int64 `json:"codebook_header_bytes"`
	BodyBytes   int64 `json:"body_bytes"`
	// Throughput over the frames' code streams (4 bytes per symbol), and
	// the full sz frame decode over decoded cell bytes.
	EncodeMBps      float64 `json:"huffman_encode_mb_per_s"`
	DecodeMBps      float64 `json:"huffman_decode_mb_per_s"`
	FrameDecodeMBps float64 `json:"frame_decode_mb_per_s"`

	Sweep []SweepPoint `json:"sweep"`
}

// SweepPoint is the campaign's compressed size at one error bound, with
// the lossless stage on (the default) and off (sz DisableLossless).
type SweepPoint struct {
	Bound                  string  `json:"bound"`
	Mode                   string  `json:"mode"`
	ErrorBound             float64 `json:"error_bound"`
	OriginalBytes          int64   `json:"original_bytes"`
	TacBytes               int64   `json:"tac_bytes"`
	TacBytesNoLossless     int64   `json:"tac_bytes_no_lossless"`
	ArchiveBytes           int64   `json:"archive_bytes"`
	ArchiveBytesNoLossless int64   `json:"archive_bytes_no_lossless"`
}

// sweepBounds are the error bounds of the small-frame sweep: three
// value-range-relative bounds and two absolute ones (the baryon density
// field spans roughly 1e7–1e12, so abs 1e9 sits near Huffman's 1-bit
// floor and abs 1e7 well above it).
var sweepBounds = []struct {
	name string
	cfg  codec.Config
}{
	{"rel 1e-3", codec.Config{ErrorBound: 1e-3, Mode: sz.Rel}},
	{"rel 1e-4", codec.Config{ErrorBound: 1e-4, Mode: sz.Rel}},
	{"rel 1e-5", codec.Config{ErrorBound: 1e-5, Mode: sz.Rel}},
	{"abs 1e7", codec.Config{ErrorBound: 1e7}},
	{"abs 1e9", codec.Config{ErrorBound: 1e9}},
}

// SmallFrameBench runs the small-frame entropy section over the baryon
// density of every catalog dataset (all seven Table-1 structures): the
// frame measurements on the campaign's rel 1e-3 archive, then the
// error-bound sweep.
func SmallFrameBench(env *Env) (SmallFrameBenchResult, error) {
	var res SmallFrameBenchResult
	specs, err := sim.Catalog(env.Scale)
	if err != nil {
		return res, err
	}
	var snaps []*amr.Dataset
	for _, spec := range specs {
		ds, err := env.Dataset(spec.Name, sim.BaryonDensity)
		if err != nil {
			return res, err
		}
		snaps = append(snaps, ds)
	}
	for _, b := range sweepBounds {
		pt := SweepPoint{Bound: b.name, Mode: b.cfg.Mode.String(), ErrorBound: b.cfg.ErrorBound}
		for _, ds := range snaps {
			pt.OriginalBytes += int64(ds.OriginalBytes())
		}
		for _, off := range []bool{false, true} {
			cfg := b.cfg
			cfg.DisableLossless = off
			tacBytes, arch, err := sweepSizes(snaps, cfg)
			if err != nil {
				return res, fmt.Errorf("%s: %w", b.name, err)
			}
			if off {
				pt.TacBytesNoLossless, pt.ArchiveBytesNoLossless = tacBytes, int64(len(arch))
				continue
			}
			pt.TacBytes, pt.ArchiveBytes = tacBytes, int64(len(arch))
			if len(res.Sweep) == 0 {
				if err := res.measureFrames(arch); err != nil {
					return res, err
				}
			}
		}
		res.Sweep = append(res.Sweep, pt)
	}
	return res, nil
}

// sweepSizes compresses snaps one-shot (TAC payloads) and into one
// archive, returning the summed payload bytes and the archive.
func sweepSizes(snaps []*amr.Dataset, cfg codec.Config) (int64, []byte, error) {
	eng := core.NewEngine(1)
	var tacBytes int64
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf)
	if err != nil {
		return 0, nil, err
	}
	for _, ds := range snaps {
		blob, err := eng.Compress(ds, cfg)
		if err != nil {
			return 0, nil, err
		}
		tacBytes += int64(len(blob))
		if err := w.AddDataset(ds, cfg); err != nil {
			return 0, nil, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, nil, err
	}
	return tacBytes, buf.Bytes(), nil
}

// measureFrames fills the frame fields from every frame of arch.
func (res *SmallFrameBenchResult) measureFrames(arch []byte) error {
	r, err := archive.Open(bytes.NewReader(arch), int64(len(arch)))
	if err != nil {
		return err
	}
	var frames [][]byte
	var streams [][]uint32
	var frameBytes, syms, cells int64
	var enc huffman.Encoder
	var blob []byte
	for _, m := range r.Members() {
		for _, li := range m.Levels {
			for _, rec := range li.Batches {
				f := arch[rec.Offset : rec.Offset+rec.Length]
				codes, err := sz.ExtractCodes(f)
				if err != nil {
					return err
				}
				blob = enc.AppendEncode(blob[:0], codes)
				res.HeaderBytes += int64((enc.HeaderBits() + 7) / 8)
				res.BodyBytes += int64(len(blob)) - int64((enc.HeaderBits()+7)/8)
				frames = append(frames, f)
				streams = append(streams, codes)
				frameBytes += rec.Length
				syms += int64(len(codes))
			}
		}
	}
	if len(frames) == 0 {
		return fmt.Errorf("small-frame bench: archive has no frames")
	}
	res.Frames = len(frames)
	res.SymbolsPerFrame = float64(syms) / float64(len(frames))
	res.FrameBytes = float64(frameBytes) / float64(len(frames))

	blobs := make([][]byte, len(streams))
	for i, s := range streams {
		blobs[i] = enc.AppendEncode(nil, s)
	}
	const iters = 8
	ns, _, _, err := measureLoop(iters, func() error {
		for _, s := range streams {
			blob = enc.AppendEncode(blob[:0], s)
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.EncodeMBps = float64(4*syms) / 1e6 / (ns / 1e9)

	var dec huffman.Decoder
	var out []uint32
	ns, _, _, err = measureLoop(iters, func() error {
		for _, b := range blobs {
			var derr error
			if out, derr = dec.AppendDecode(out[:0], b); derr != nil {
				return derr
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.DecodeMBps = float64(4*syms) / 1e6 / (ns / 1e9)

	fdec := sz.NewDecoder[amr.Value]()
	ns, _, _, err = measureLoop(iters, func() error {
		cells = 0
		for _, f := range frames {
			blocks, derr := fdec.DecompressBlocks(f)
			if derr != nil {
				return derr
			}
			for _, b := range blocks {
				cells += int64(len(b.Data))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.FrameDecodeMBps = float64(4*cells) / 1e6 / (ns / 1e9)
	return nil
}
