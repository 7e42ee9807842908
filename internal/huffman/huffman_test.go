package huffman

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
)

// canonicalize is the reference canonical-code assignment: sort by
// (length, symbol) and hand out consecutive codes. assignCodes and
// Decoder.build must reproduce it exactly (TestAssignCodesMatchesSort).
func canonicalize(codes []symCode) []symCode {
	slices.SortFunc(codes, func(a, b symCode) int {
		if a.len != b.len {
			return int(a.len) - int(b.len)
		}
		return cmp.Compare(a.sym, b.sym)
	})
	var code uint64
	var prevLen uint8
	for i := range codes {
		code <<= codes[i].len - prevLen
		codes[i].code = code
		code++
		prevLen = codes[i].len
	}
	return codes
}

// encodeV1 writes syms in the V1 blob layout (length-prefixed uvarint
// header of (symbol-delta, length) pairs, byte-aligned body) with the
// same canonical codes the Encoder assigns — the layout version-1 sz
// payloads carry, for exercising AppendDecodeV1.
func encodeV1(syms []uint32) []byte {
	var e Encoder
	e.AppendEncode(nil, syms)
	var hdr []byte
	hdr = bitio.AppendUvarint(hdr, uint64(len(syms)))
	hdr = bitio.AppendUvarint(hdr, uint64(len(e.codes)))
	prev := uint32(0)
	table := make(map[uint32]symCode, len(e.codes))
	for _, c := range e.codes {
		hdr = bitio.AppendUvarint(hdr, uint64(c.sym-prev))
		hdr = bitio.AppendUvarint(hdr, uint64(c.len))
		prev = c.sym
		table[c.sym] = c
	}
	var w bitio.Writer
	w.Reset(bitio.AppendBytes(nil, hdr))
	for _, s := range syms {
		w.WriteBits(table[s].code, uint(table[s].len))
	}
	return w.Bytes()
}

// roundTrip checks syms through the compact format and the V1 layout.
func roundTrip(t *testing.T, syms []uint32) {
	t.Helper()
	check := func(name string, got []uint32, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(syms) {
			t.Fatalf("%s: decoded %d symbols, want %d", name, len(got), len(syms))
		}
		for i := range syms {
			if got[i] != syms[i] {
				t.Fatalf("%s: symbol %d: got %d, want %d", name, i, got[i], syms[i])
			}
		}
	}
	got, err := Decode(Encode(syms))
	check("compact", got, err)
	var d Decoder
	got, err = d.AppendDecodeV1(nil, encodeV1(syms))
	check("v1", got, err)
}

func TestEmpty(t *testing.T)        { roundTrip(t, nil) }
func TestSingleSymbol(t *testing.T) { roundTrip(t, []uint32{7, 7, 7, 7, 7}) }
func TestTwoSymbols(t *testing.T)   { roundTrip(t, []uint32{1, 2, 1, 1, 2}) }

func TestSkewedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	syms := make([]uint32, 100000)
	for i := range syms {
		// Geometric-ish distribution, like quantization codes.
		v := uint32(32768)
		for rng.Intn(2) == 0 && v < 32790 {
			v++
		}
		syms[i] = v
	}
	blob := Encode(syms)
	if len(blob) >= 2*len(syms) {
		t.Fatalf("skewed stream did not compress: %d bytes for %d symbols", len(blob), len(syms))
	}
	roundTrip(t, syms)
}

func TestUniformAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint32, 4096)
	for i := range syms {
		syms[i] = uint32(rng.Intn(256))
	}
	roundTrip(t, syms)
}

func TestLargeSymbolValues(t *testing.T) {
	roundTrip(t, []uint32{0, 1 << 30, 42, 1<<31 + 5, 42, 0})
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16, alphabet uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := int(alphabet)%64 + 1
		syms := make([]uint32, int(n)%2048)
		for i := range syms {
			syms[i] = uint32(rng.Intn(a))
		}
		blob := Encode(syms)
		got, err := Decode(blob)
		if err != nil || len(got) != len(syms) {
			return false
		}
		for i := range syms {
			if got[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	syms := []uint32{1, 2, 3, 4, 5, 1, 2, 3}
	blob := Encode(syms)
	// Truncations must error, never panic or return wrong-length output.
	for cut := 0; cut < len(blob); cut++ {
		if got, err := Decode(blob[:cut]); err == nil && len(got) == len(syms) {
			// A prefix that still decodes fully would be a framing bug.
			same := true
			for i := range syms {
				if got[i] != syms[i] {
					same = false
					break
				}
			}
			if same && cut < len(blob)-1 {
				t.Fatalf("truncation to %d bytes still decodes fully", cut)
			}
		}
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode(nil) should error")
	}
}

// kraftSum returns Σ 2^(maxCodeLen - len) over the codebook, scaled so a
// complete prefix-free code sums to exactly 1<<maxCodeLen.
func kraftSum(codes []symCode) uint64 {
	var k uint64
	for _, c := range codes {
		k += (uint64(1) << maxCodeLen) >> c.len
	}
	return k
}

// assertPrefixFree verifies no canonical code is a prefix of another.
func assertPrefixFree(t *testing.T, codes []symCode) {
	t.Helper()
	for i := range codes {
		if codes[i].code >= 1<<codes[i].len {
			t.Fatalf("code %d: %b overflows its length %d", i, codes[i].code, codes[i].len)
		}
		for j := i + 1; j < len(codes); j++ {
			a, b := codes[i], codes[j]
			if a.len > b.len {
				a, b = b, a
			}
			if b.code>>(b.len-a.len) == a.code {
				t.Fatalf("code %b/%d is a prefix of %b/%d", a.code, a.len, b.code, b.len)
			}
		}
	}
}

// TestLimitLengthsAdversarial feeds the tree builder a Fibonacci frequency
// ladder — the classic worst case, driving raw Huffman depths far past
// maxCodeLen — and checks the redistributed lengths are limited, Kraft-
// valid and prefix-free. The old implementation clamped depths in place,
// which broke prefix-freeness exactly here.
func TestLimitLengthsAdversarial(t *testing.T) {
	sf := make([]symFreq, 90)
	a, b := uint64(1), uint64(1)
	for i := range sf {
		sf[i] = symFreq{sym: uint32(i), freq: a}
		a, b = b, a+b
	}
	var tb treeBuilder
	raw := tb.codeLengths(nil, sf)
	deep := false
	for _, c := range raw {
		if c.len > maxCodeLen {
			deep = true
		}
	}
	if !deep {
		t.Fatal("adversarial distribution did not exceed maxCodeLen; test is vacuous")
	}
	limitLengths(raw)
	for _, c := range raw {
		if c.len == 0 || c.len > maxCodeLen {
			t.Fatalf("symbol %d: length %d outside [1,%d]", c.sym, c.len, maxCodeLen)
		}
	}
	if k := kraftSum(raw); k > 1<<maxCodeLen {
		t.Fatalf("limited lengths over-subscribed: kraft %d > %d", k, uint64(1)<<maxCodeLen)
	}
	assertPrefixFree(t, canonicalize(raw))
}

// TestCodeLengthsOrderInvariant checks the tree build is a pure function
// of the frequency multiset: the dense path feeds symbols in ascending
// order and the map fallback in random order, and both must produce the
// same codebook (this is what keeps payloads byte-identical).
func TestCodeLengthsOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sf := make([]symFreq, 257)
	for i := range sf {
		sf[i] = symFreq{sym: uint32(i * 3), freq: uint64(rng.Intn(50) + 1)}
	}
	var tb treeBuilder
	ref := canonicalize(tb.codeLengths(nil, sf))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(sf), func(i, j int) { sf[i], sf[j] = sf[j], sf[i] })
		got := canonicalize(tb.codeLengths(nil, sf))
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d codes, want %d", trial, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("trial %d code %d: %+v != %+v", trial, i, got[i], ref[i])
			}
		}
	}
}

// TestLongCodesOverflowPath round-trips a stream whose codebook is deeper
// than the primary decode table, so symbols resolve through the canonical
// first-code overflow path as well as the LUT.
func TestLongCodesOverflowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var syms []uint32
	// Zipf-ish: a few very hot symbols (short codes) plus a long tail of
	// thousands of rare ones (codes well past TableBits bits).
	for i := 0; i < 60000; i++ {
		syms = append(syms, uint32(rng.Intn(8)))
	}
	for i := 0; i < 10000; i++ {
		syms = append(syms, uint32(8+rng.Intn(12000)))
	}
	rng.Shuffle(len(syms), func(i, j int) { syms[i], syms[j] = syms[j], syms[i] })

	var e Encoder
	blob := e.AppendEncode(nil, syms)
	var maxLen uint8
	for _, c := range e.codes {
		maxLen = max(maxLen, c.len)
	}
	if maxLen <= TableBits {
		t.Fatalf("max code length %d does not exceed TableBits=%d; test is vacuous", maxLen, TableBits)
	}
	roundTrip(t, syms)
	var d Decoder
	got, err := d.AppendDecode(nil, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: got %d, want %d", i, got[i], syms[i])
		}
	}
}

// TestDecoderReuse interleaves decodes of different codebooks (shallow,
// deep, single-symbol) through one pooled Decoder: stale tables from a
// previous call must never leak into the next.
func TestDecoderReuse(t *testing.T) {
	streams := [][]uint32{
		{5, 5, 5, 5},
		{1, 2, 3, 1, 2, 1},
		nil,
		{70000, 1, 70000, 2, 1 << 30},
	}
	rng := rand.New(rand.NewSource(13))
	wide := make([]uint32, 30000)
	for i := range wide {
		wide[i] = uint32(rng.Intn(9000))
	}
	streams = append(streams, wide)

	blobs := make([][]byte, len(streams))
	for i, s := range streams {
		blobs[i] = Encode(s)
	}
	var d Decoder
	var out []uint32
	for round := 0; round < 3; round++ {
		for i, s := range streams {
			var err error
			out, err = d.AppendDecode(out[:0], blobs[i])
			if err != nil {
				t.Fatalf("round %d stream %d: %v", round, i, err)
			}
			if len(out) != len(s) {
				t.Fatalf("round %d stream %d: %d symbols, want %d", round, i, len(out), len(s))
			}
			for j := range s {
				if out[j] != s[j] {
					t.Fatalf("round %d stream %d symbol %d: got %d, want %d", round, i, j, out[j], s[j])
				}
			}
		}
	}
}

// corruptBlob assembles a syntactically framed V1 blob from a hand-built
// codebook: pairs are (deltaSym, len) varints, body is raw bit-stream
// bytes.
func corruptBlob(nsyms uint64, pairs [][2]uint64, body []byte) []byte {
	var hdr []byte
	hdr = bitio.AppendUvarint(hdr, nsyms)
	hdr = bitio.AppendUvarint(hdr, uint64(len(pairs)))
	for _, p := range pairs {
		hdr = bitio.AppendUvarint(hdr, p[0])
		hdr = bitio.AppendUvarint(hdr, p[1])
	}
	blob := bitio.AppendBytes(nil, hdr)
	return append(blob, body...)
}

// TestMalformedCodebooks pins the decoder's rejection of structurally
// invalid codebooks: over-subscribed length sets (which would break the
// table build), duplicate symbols, symbol overflow, and over-long codes.
func TestMalformedCodebooks(t *testing.T) {
	cases := []struct {
		name string
		blob []byte
	}{
		{"over-subscribed", corruptBlob(4, [][2]uint64{{0, 1}, {1, 1}, {1, 1}}, []byte{0xaa})},
		{"duplicate symbol", corruptBlob(4, [][2]uint64{{3, 2}, {0, 2}}, []byte{0xaa})},
		{"symbol overflow", corruptBlob(4, [][2]uint64{{1 << 33, 2}}, []byte{0xaa})},
		{"delta overflow", corruptBlob(4, [][2]uint64{{1 << 31, 2}, {1 << 31, 2}, {1 << 31, 3}}, []byte{0xaa})},
		{"zero length", corruptBlob(4, [][2]uint64{{0, 0}}, []byte{0xaa})},
		{"over-long length", corruptBlob(4, [][2]uint64{{0, 58}}, []byte{0xaa})},
	}
	var d Decoder
	for _, c := range cases {
		if _, err := d.AppendDecodeV1(nil, c.blob); err == nil {
			t.Errorf("%s: AppendDecodeV1 accepted a malformed codebook", c.name)
		}
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	// A highly repetitive stream should compress far below 4 bytes/symbol.
	syms := make([]uint32, 65536)
	for i := range syms {
		syms[i] = uint32(i % 3)
	}
	blob := Encode(syms)
	if len(blob) > len(syms)/2 {
		t.Fatalf("3-symbol stream took %d bytes for %d symbols", len(blob), len(syms))
	}
}

// TestAssignCodesMatchesSort checks the counting-sort canonical codes of
// the encoder (assignCodes) and the decoder (build) against the
// reference (length, symbol) sort, over shallow, deep and length-limited
// codebooks.
func TestAssignCodesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var books [][]symFreq
	for _, n := range []int{1, 2, 3, 17, 300, 5000} {
		sf := make([]symFreq, n)
		sym := uint32(rng.Intn(100))
		for i := range sf {
			sym += uint32(1 + rng.Intn(3))
			sf[i] = symFreq{sym: sym, freq: uint64(1 + rng.Intn(1+rng.Intn(4000)))}
		}
		books = append(books, sf)
	}
	fib := make([]symFreq, 90) // depths past maxCodeLen: limitLengths redistributes
	a, b := uint64(1), uint64(1)
	for i := range fib {
		fib[i] = symFreq{sym: uint32(2 * i), freq: a}
		a, b = b, a+b
	}
	books = append(books, fib)

	var tb treeBuilder
	var d Decoder
	for bi, sf := range books {
		codes := tb.codeLengths(nil, sf)
		limitLengths(codes)
		ref := canonicalize(append([]symCode(nil), codes...))
		minLen := assignCodes(codes)
		if minLen != ref[0].len {
			t.Fatalf("book %d: shortest length %d, want %d", bi, minLen, ref[0].len)
		}
		bySym := make(map[uint32]symCode, len(codes))
		for i, c := range codes {
			if i > 0 && c.sym <= codes[i-1].sym {
				t.Fatalf("book %d: assignCodes reordered the codebook", bi)
			}
			bySym[c.sym] = c
		}
		for _, r := range ref {
			if got := bySym[r.sym]; got != r {
				t.Fatalf("book %d symbol %d: %+v, want %+v", bi, r.sym, got, r)
			}
		}
		// The decoder's canonical-order symbol table is the sorted order.
		d.build(codes)
		for i, r := range ref {
			if d.syms[i] != r.sym {
				t.Fatalf("book %d: decoder canonical slot %d holds %d, want %d", bi, i, d.syms[i], r.sym)
			}
		}
	}
}

// compactBlob assembles a compact-format blob from a hand-built codebook
// given as (step, length) pairs after firstSym (the first pair's step is
// ignored), followed by raw body bytes.
func compactBlob(nsyms uint64, firstSym uint64, entries [][2]uint64, body []byte) []byte {
	blob := bitio.AppendUvarint(nil, nsyms)
	blob = bitio.AppendUvarint(blob, uint64(len(entries)))
	if len(entries) == 0 {
		return append(blob, body...)
	}
	blob = bitio.AppendUvarint(blob, firstSym)
	var w bitio.Writer
	w.Reset(blob)
	prevLen := int64(0)
	for i, e := range entries {
		if i > 0 {
			if e[0] == 1 {
				w.WriteBits(0, 1)
			} else {
				w.WriteBits(1, 1)
				writeGamma(&w, e[0]-1)
			}
		}
		writeGamma(&w, zigzag(int64(e[1])-prevLen)+1)
		prevLen = int64(e[1])
	}
	return append(w.Bytes(), body...)
}

// TestMalformedCompactCodebooks pins the compact parser's rejection of
// invalid codebooks: over-subscription, zero and over-long lengths,
// symbol overflow, oversized gamma codes, implausible counts and
// truncation inside the codebook.
func TestMalformedCompactCodebooks(t *testing.T) {
	cases := []struct {
		name string
		blob []byte
	}{
		{"over-subscribed", compactBlob(4, 0, [][2]uint64{{1, 1}, {1, 1}, {1, 1}}, []byte{0xaa})},
		{"zero length", compactBlob(4, 0, [][2]uint64{{1, 0}}, []byte{0xaa})},
		{"over-long length", compactBlob(4, 0, [][2]uint64{{1, 58}}, []byte{0xaa})},
		{"symbol overflow", compactBlob(4, 1<<32, [][2]uint64{{1, 1}}, []byte{0xaa})},
		{"step overflow", compactBlob(4, 1<<31, [][2]uint64{{1, 2}, {1 << 31, 2}}, []byte{0xaa})},
		{"empty codebook", compactBlob(4, 0, nil, []byte{0xaa})},
		{"count beyond stream", compactBlob(100, 5, [][2]uint64{{1, 1}}, []byte{0x00})},
		{"codebook count beyond stream", append(bitio.AppendUvarint(bitio.AppendUvarint(nil, 4), 1000), 0, 0xff)},
		{"gamma too wide", append(bitio.AppendUvarint(bitio.AppendUvarint(nil, 4), 2), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)},
	}
	full := Encode([]uint32{3, 4, 5, 9, 3, 3, 4})
	for cut := 3; cut < 6 && cut < len(full); cut++ {
		cases = append(cases, struct {
			name string
			blob []byte
		}{"truncated codebook", full[:cut]})
	}
	var d Decoder
	for _, c := range cases {
		if _, err := d.AppendDecode(nil, c.blob); err == nil {
			t.Errorf("%s: AppendDecode accepted a malformed codebook", c.name)
		}
	}
}

// TestCompactHeaderSmaller checks the compact codebook against the V1
// varint pairs on a quantization-like stream: same canonical codes, so
// the bodies are bit-identical, and a header well under half the size.
func TestCompactHeaderSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	syms := make([]uint32, 2000)
	for i := range syms {
		syms[i] = uint32(32768 + int(rng.NormFloat64()*12))
	}
	var e Encoder
	compact := e.AppendEncode(nil, syms)
	hdrBits := e.HeaderBits()
	v1 := encodeV1(syms)
	v1Hdr, n, err := bitio.Bytes(v1)
	if err != nil {
		t.Fatal(err)
	}
	v1Body := v1[n:]
	if 8*len(v1Body) < 8*len(compact)-hdrBits-7 || 8*len(v1Body) > 8*len(compact)-hdrBits+7 {
		t.Fatalf("bodies differ: v1 %d bytes, compact %d bits", len(v1Body), 8*len(compact)-hdrBits)
	}
	if 2*hdrBits > 8*len(v1Hdr) {
		t.Fatalf("compact header %d bits, v1 header %d bytes: want under half", hdrBits, len(v1Hdr))
	}
	if e.ShortestCode() == 0 {
		t.Fatal("ShortestCode reports an empty codebook")
	}
	if !bytes.Equal(Encode(syms), compact) {
		t.Fatal("package Encode and a fresh Encoder disagree")
	}
}
