package huffman

import (
	"math/rand"
	"testing"
)

// quantStream synthesizes a symbol stream shaped like the Run1_Z10
// quantization codes: a two-sided geometric distribution centered on the
// zero-residual bin (radius 2^15 at the default QuantBits=16) with a ~1%
// sprinkle of literal markers (code 0), matching what the Lorenzo
// predictor emits on the baryon-density field.
func quantStream(n int) []uint32 {
	rng := rand.New(rand.NewSource(7))
	syms := make([]uint32, n)
	const center = 1 << 15
	for i := range syms {
		if rng.Float64() < 0.01 {
			syms[i] = 0 // literal marker
			continue
		}
		d := int32(0)
		for rng.Intn(2) == 0 && d < 40 {
			d++
		}
		if rng.Intn(2) == 0 {
			d = -d
		}
		syms[i] = uint32(center + d)
	}
	return syms
}

func BenchmarkHuffmanEncode(b *testing.B) {
	syms := quantStream(1 << 18)
	var e Encoder
	dst := e.AppendEncode(nil, syms)
	b.SetBytes(int64(4 * len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.AppendEncode(dst[:0], syms)
	}
}

func BenchmarkHuffmanDecode(b *testing.B) {
	syms := quantStream(1 << 18)
	blob := Encode(syms)
	out, err := AppendDecode(nil, blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = AppendDecode(out[:0], blob)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// smallFrame is one archive-frame-sized stream: 64 unit blocks of 4³
// cells, the DefaultBatchBlocks frame of a TACA archive, where codebook
// parse and table setup weigh as much as the symbol loop.
func smallFrame() []uint32 { return quantStream(64 * 64) }

func BenchmarkHuffmanEncodeSmallFrame(b *testing.B) {
	syms := smallFrame()
	var e Encoder
	dst := e.AppendEncode(nil, syms)
	b.SetBytes(int64(4 * len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.AppendEncode(dst[:0], syms)
	}
}

func BenchmarkHuffmanDecodeSmallFrame(b *testing.B) {
	syms := smallFrame()
	blob := Encode(syms)
	var d Decoder
	out, err := d.AppendDecode(nil, blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err = d.AppendDecode(out[:0], blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHuffmanDecodeV1SmallFrame(b *testing.B) {
	syms := smallFrame()
	blob := encodeV1(syms)
	var d Decoder
	out, err := d.AppendDecodeV1(nil, blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err = d.AppendDecodeV1(out[:0], blob); err != nil {
			b.Fatal(err)
		}
	}
}
