package sz

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"testing"

	"repro/internal/bitio"
	"repro/internal/grid"
)

// TestV1PayloadFixture decodes a version-1 payload written by the last
// version-1 encoder (V1 codebook, both sections DEFLATEd, literals
// present) and compares it with the output recorded beside it.
func TestV1PayloadFixture(t *testing.T) {
	blob, err := os.ReadFile("testdata/v1_blocks.sz")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/v1_blocks.f32")
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := parseHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if h.version != versionV1 || h.lossless != losslessBoth {
		t.Fatalf("fixture is version %d lossless %d, want a version 1 DEFLATEd payload", h.version, h.lossless)
	}
	flat := func(blocks []*grid.Grid3[float32]) []byte {
		var out []byte
		for _, b := range blocks {
			out = append(out, floatBytes(b.Data)...)
		}
		return out
	}
	got, err := DecompressBlocks[float32](blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat(got), want) {
		t.Fatal("version 1 payload decodes differently from its recorded output")
	}
	got, err = DecompressBlocksParallel[float32](blob, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat(got), want) {
		t.Fatal("version 1 payload decodes differently in parallel")
	}
}

// headerBytes assembles a bare payload header.
func headerBytes(ver, lossless uint64) []byte {
	var h []byte
	for _, v := range []uint64{magic, ver, kindBatch, 8, math.Float64bits(0.1), 16, lossless, 2, 2, 2, 2, 1, 1, 1} {
		h = bitio.AppendUvarint(h, v)
	}
	return h
}

// TestParseHeaderLosslessModes checks the lossless field against the
// payload version: version 1 knows none (0) and both (1); version 2 adds
// codes only (2) and literals only (3). Anything else is rejected rather
// than read as "not deflated".
func TestParseHeaderLosslessModes(t *testing.T) {
	for _, c := range []struct {
		ver, mode uint64
		ok        bool
	}{
		{1, 0, true}, {1, 1, true}, {1, 2, false}, {1, 3, false}, {1, 200, false},
		{2, 0, true}, {2, 1, true}, {2, 2, true}, {2, 3, true}, {2, 4, false}, {2, 1 << 40, false},
		{3, 0, false},
	} {
		h, _, err := parseHeader(headerBytes(c.ver, c.mode))
		if (err == nil) != c.ok {
			t.Errorf("version %d lossless %d: err %v, want ok=%v", c.ver, c.mode, err, c.ok)
			continue
		}
		if c.ok && (h.version != int(c.ver) || uint64(h.lossless) != c.mode) {
			t.Errorf("version %d lossless %d parsed as %+v", c.ver, c.mode, h)
		}
	}
}

// TestLosslessKeepIfSmaller sweeps error bounds from literal-heavy to the
// 1-bit floor: a lossless-on payload is never larger than its
// DisableLossless twin, decodes to the same values, and DEFLATE stays
// only on the sections where it shrank something.
func TestLosslessKeepIfSmaller(t *testing.T) {
	blocks := testBlocks(16, 8, 21)
	seen := map[losslessMode]bool{}
	for _, eb := range []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 100} {
		on, _, err := CompressBlocks(blocks, Options{ErrorBound: eb})
		if err != nil {
			t.Fatal(err)
		}
		off, _, err := CompressBlocks(blocks, Options{ErrorBound: eb, DisableLossless: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(on) > len(off) {
			t.Errorf("eb %g: lossless payload %d bytes > %d without it", eb, len(on), len(off))
		}
		h, _, err := parseHeader(on)
		if err != nil {
			t.Fatal(err)
		}
		seen[h.lossless] = true
		if h.lossless == losslessNone && !bytes.Equal(on, off) {
			t.Errorf("eb %g: nothing kept DEFLATEd but bytes differ from the DisableLossless payload", eb)
		}
		a, err := DecompressBlocks[float32](on)
		if err != nil {
			t.Fatal(err)
		}
		b, err := DecompressBlocks[float32](off)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !bytes.Equal(floatBytes(a[i].Data), floatBytes(b[i].Data)) {
				t.Fatalf("eb %g block %d: lossless stage changed decoded values", eb, i)
			}
		}
	}
	if !seen[losslessLits] || !seen[losslessBoth] {
		t.Fatalf("sweep did not reach the literals-only and both modes: %v", seen)
	}
}

func floatBytes(v []float32) []byte {
	out := make([]byte, 0, 4*len(v))
	for _, f := range v {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(f))
	}
	return out
}
