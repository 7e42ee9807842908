package huffman

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bitio"
)

// fuzzStreams are the symbol streams the valid seeds encode: empty,
// single-symbol, tiny, skewed, a deep codebook (overflow decode path) and
// a sparse 32-bit alphabet.
func fuzzStreams() [][]uint32 {
	rng := rand.New(rand.NewSource(21))
	skew := make([]uint32, 4096)
	for i := range skew {
		v := uint32(32768)
		for rng.Intn(2) == 0 && v < 32790 {
			v++
		}
		skew[i] = v
	}
	wide := make([]uint32, 4096)
	for i := range wide {
		wide[i] = uint32(rng.Intn(9000))
	}
	return [][]uint32{nil, {7, 7, 7, 7}, {0, 1, 2, 0, 1, 0}, skew, wide, {0, 1 << 30, 42, 1<<31 + 5, 42, 0}}
}

// compactFuzzSeeds are valid compact encodings of fuzzStreams plus
// handcrafted malformed compact codebooks; they are checked in under
// testdata/fuzz as seed_v2_*.
func compactFuzzSeeds() [][]byte {
	var seeds [][]byte
	for _, st := range fuzzStreams() {
		seeds = append(seeds, Encode(st))
	}
	return append(seeds,
		compactBlob(4, 0, [][2]uint64{{1, 1}, {1, 1}, {1, 1}}, []byte{0xaa}),   // over-subscribed
		compactBlob(8, 3, [][2]uint64{{1, 57}, {5, 57}}, []byte{0xff, 0xff}),   // max-length codes
		compactBlob(4, 1<<31, [][2]uint64{{1, 2}, {1 << 31, 2}}, []byte{0xaa}), // symbol overflow
		compactBlob(100, 5, [][2]uint64{{1, 3}}, []byte{0x00}),                 // count beyond stream
	)
}

// v1FuzzSeeds are V1-layout encodings of fuzzStreams plus handcrafted
// malformed V1 codebooks (the checked-in seed00-seed23 predate the
// compact layout and cover the same shapes).
func v1FuzzSeeds() [][]byte {
	var seeds [][]byte
	for _, st := range fuzzStreams() {
		seeds = append(seeds, encodeV1(st))
	}
	mk := func(nsyms uint64, pairs [][2]uint64, body []byte) []byte {
		var hdr []byte
		hdr = bitio.AppendUvarint(hdr, nsyms)
		hdr = bitio.AppendUvarint(hdr, uint64(len(pairs)))
		for _, p := range pairs {
			hdr = bitio.AppendUvarint(hdr, p[0])
			hdr = bitio.AppendUvarint(hdr, p[1])
		}
		return append(bitio.AppendBytes(nil, hdr), body...)
	}
	return append(seeds,
		mk(4, [][2]uint64{{0, 1}, {1, 1}, {1, 1}}, []byte{0xaa}), // over-subscribed
		mk(4, [][2]uint64{{3, 2}, {0, 2}}, []byte{0xaa}),         // duplicate symbol
		mk(4, [][2]uint64{{1 << 33, 2}}, []byte{0xaa}),           // symbol overflow
		mk(8, [][2]uint64{{0, 57}, {1, 57}}, []byte{0xff, 0xff}), // max-length codes
		mk(100, [][2]uint64{{5, 3}}, []byte{0x00}),               // count beyond stream
	)
}

// TestWriteCompactSeedCorpus writes the compact-layout seeds into
// testdata/fuzz when UPDATE_FUZZ_SEEDS=1 is set (a no-op otherwise); the
// V1 seeds already checked in stay as they are.
func TestWriteCompactSeedCorpus(t *testing.T) {
	if os.Getenv("UPDATE_FUZZ_SEEDS") == "" {
		t.Skip("set UPDATE_FUZZ_SEEDS=1 to rewrite testdata/fuzz compact seeds")
	}
	for i, s := range compactFuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
		name := fmt.Sprintf("testdata/fuzz/FuzzAppendDecode/seed_v2_%02d", i)
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzAppendDecode fuzzes the full decode surface of both layouts: header
// framing, the compact and V1 codebook parsers and validators (Kraft,
// duplicates, overflow), the LUT build and both decode paths. Corrupt
// input must error, never panic or over-allocate; successful decodes must
// survive a re-encode/re-decode round trip and be reproducible through a
// reused Decoder.
func FuzzAppendDecode(f *testing.F) {
	for _, s := range append(compactFuzzSeeds(), v1FuzzSeeds()...) {
		f.Add(s)
		if len(s) > 6 {
			mut := append([]byte(nil), s...)
			mut[len(mut)/2] ^= 0x11
			f.Add(mut)
			f.Add(s[:len(s)-2]) // truncated tail
		}
	}
	var pooled Decoder
	var scratch []uint32
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh Decoder
		for _, layout := range []struct {
			name   string
			decode func(*Decoder, []uint32, []byte) ([]uint32, error)
		}{{"compact", (*Decoder).AppendDecode}, {"v1", (*Decoder).AppendDecodeV1}} {
			syms, err := layout.decode(&fresh, nil, data)
			if err != nil {
				continue
			}
			if len(syms) > 8*len(data) {
				t.Fatalf("%s: decoded %d symbols from %d bytes: over-allocation guard failed", layout.name, len(syms), len(data))
			}
			// A pooled decoder carrying tables from previous inputs must agree.
			var perr error
			scratch, perr = layout.decode(&pooled, scratch[:0], data)
			if perr != nil {
				t.Fatalf("%s: pooled decoder rejected input the fresh decoder accepted: %v", layout.name, perr)
			}
			if !slices.Equal(scratch, syms) {
				t.Fatalf("%s: pooled decoder diverges from a fresh one", layout.name)
			}
			// Decoded symbols must survive a canonical re-encode round trip
			// (blobs need not match: non-canonical headers decode too).
			back, err := Decode(Encode(syms))
			if err != nil {
				t.Fatalf("%s: re-encode of decoded stream does not decode: %v", layout.name, err)
			}
			if !slices.Equal(back, syms) {
				t.Fatalf("%s: re-encode round trip diverges", layout.name)
			}
		}
	})
}
