// Package huffman implements a canonical Huffman coder over uint32 symbol
// streams. It is the entropy stage of the SZ-style compressor (Sec. 2.1 of
// the TAC paper: "apply a customized Huffman coding and lossless compression
// to achieve a higher ratio").
//
// Codes are canonical: only the code length of each present symbol is
// serialized, and both sides reconstruct identical codebooks, so the header
// overhead stays small even for large quantization-bin alphabets.
//
// Both directions are table-driven. The encoder counts frequencies and
// emits codes through dense arrays whenever the alphabet is small (the
// common case: quantization codes are bounded by 2^QuantBits), falling back
// to maps for sparse 32-bit alphabets. The decoder resolves symbols through
// a primary lookup table indexed by the next TableBits bits of the stream —
// one table hit per symbol instead of a bit-by-bit walk — with a canonical
// first-code/offset path for the rare codes longer than TableBits.
package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/bitio"
)

const (
	// maxCodeLen bounds serialized code lengths so any code fits in a
	// single bitio read. Lengths beyond it are redistributed (not clamped)
	// by limitLengths, preserving prefix-freeness.
	maxCodeLen = 57

	// TableBits is the index width of the primary decode table: one
	// 2^TableBits-entry lookup resolves every code of up to TableBits
	// bits in a single probe. It is the decoder's footprint knob — each
	// pooled Decoder keeps a 2^TableBits × 8-byte table (32 KiB at 12)
	// warm across calls; codes longer than TableBits (rare by
	// construction: a code that long had a tiny frequency) take the
	// canonical first-code overflow path instead.
	TableBits = 12

	// denseAlphabet bounds the symbol range for the dense encode-side
	// arrays (frequency counts and per-symbol code tables). 2^16 covers
	// the default QuantBits=16 code space exactly; streams with larger
	// symbols use the map fallback.
	denseAlphabet = 1 << 16
)

// symFreq is one (symbol, frequency) input pair for the tree build.
type symFreq struct {
	sym  uint32
	freq uint64
}

// node is an arena-allocated tree node used during code-length
// construction. Leaves have left == -1; children always precede their
// parent in the arena.
type node struct {
	freq        uint64
	sym         uint32 // min symbol in subtree: deterministic tie-break
	depth       uint32
	left, right int32
}

// treeBuilder owns the node arena and heap scratch for Huffman tree
// construction, so repeated builds stop allocating.
type treeBuilder struct {
	nodes []node
	heap  []int32
}

func (tb *treeBuilder) less(a, b int32) bool {
	na, nb := &tb.nodes[a], &tb.nodes[b]
	if na.freq != nb.freq {
		return na.freq < nb.freq
	}
	// Deterministic tie-break keeps encodings reproducible across runs:
	// subtrees alive in the heap are disjoint, so (freq, sym) is a strict
	// total order and the pop sequence — hence every code length — is
	// independent of input order.
	return na.sym < nb.sym
}

func (tb *treeBuilder) siftDown(i int) {
	h := tb.heap
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && tb.less(h[l], h[m]) {
			m = l
		}
		if r < len(h) && tb.less(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (tb *treeBuilder) siftUp(i int) {
	h := tb.heap
	for i > 0 {
		p := (i - 1) / 2
		if !tb.less(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (tb *treeBuilder) pop() int32 {
	h := tb.heap
	top := h[0]
	h[0] = h[len(h)-1]
	tb.heap = h[:len(h)-1]
	tb.siftDown(0)
	return top
}

func (tb *treeBuilder) push(i int32) {
	tb.heap = append(tb.heap, i)
	tb.siftUp(len(tb.heap) - 1)
}

// codeLengths appends per-symbol (symbol, length) pairs computed with the
// classic Huffman construction. Lengths are raw tree depths (capped at 255
// for storage); callers must run limitLengths before canonicalize.
func (tb *treeBuilder) codeLengths(dst []symCode, sf []symFreq) []symCode {
	switch len(sf) {
	case 0:
		return dst
	case 1:
		return append(dst, symCode{sym: sf[0].sym, len: 1})
	}
	nodes := tb.nodes[:0]
	for _, p := range sf {
		nodes = append(nodes, node{freq: p.freq, sym: p.sym, left: -1, right: -1})
	}
	tb.nodes = nodes
	tb.heap = tb.heap[:0]
	for i := range nodes {
		tb.heap = append(tb.heap, int32(i))
	}
	for i := len(tb.heap)/2 - 1; i >= 0; i-- {
		tb.siftDown(i)
	}
	for len(tb.heap) > 1 {
		a := tb.pop()
		b := tb.pop()
		na, nb := &tb.nodes[a], &tb.nodes[b]
		sym := na.sym
		if nb.sym < sym {
			sym = nb.sym
		}
		tb.nodes = append(tb.nodes, node{freq: na.freq + nb.freq, sym: sym, left: a, right: b})
		tb.push(int32(len(tb.nodes) - 1))
	}
	// Children precede parents in the arena, so one reverse sweep from the
	// root (always the last merge) assigns every depth without recursion —
	// no stack growth even for pathologically deep trees.
	nodes = tb.nodes
	nodes[len(nodes)-1].depth = 0
	for i := len(nodes) - 1; i >= len(sf); i-- {
		d := nodes[i].depth + 1
		nodes[nodes[i].left].depth = d
		nodes[nodes[i].right].depth = d
	}
	for i, p := range sf {
		d := nodes[i].depth
		if d > 255 {
			d = 255 // storage cap only; limitLengths redistributes next
		}
		dst = append(dst, symCode{sym: p.sym, len: uint8(d)})
	}
	return dst
}

// limitLengths enforces maxCodeLen while keeping the code set prefix-free.
// Over-long codes are clamped to maxCodeLen, which over-subscribes the
// Kraft sum; the deficit is repaid by deepening the deepest still-
// shortenable codes (smallest symbol first for determinism) until
// Σ 2^-len ≤ 1 again. This replaces the old bare clamp, which could
// produce a non-prefix-free codebook for pathologically skewed alphabets.
// Unreachable for counted streams (depth > 57 needs ~Fib(58) ≈ 6·10^11
// symbols), so real payloads are byte-identical with or without it.
func limitLengths(codes []symCode) {
	over := false
	for i := range codes {
		if codes[i].len > maxCodeLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	const full = uint64(1) << maxCodeLen
	var kraft uint64
	for i := range codes {
		if codes[i].len > maxCodeLen {
			codes[i].len = maxCodeLen
		}
		kraft += full >> codes[i].len
	}
	for kraft > full {
		best := -1
		for i := range codes {
			if codes[i].len >= maxCodeLen {
				continue
			}
			if best < 0 || codes[i].len > codes[best].len ||
				(codes[i].len == codes[best].len && codes[i].sym < codes[best].sym) {
				best = i
			}
		}
		if best < 0 {
			// Would need > 2^maxCodeLen codes; impossible for a uint32
			// alphabet, but never loop forever on a logic error.
			break
		}
		kraft -= full >> (codes[best].len + 1)
		codes[best].len++
	}
}

// symCode is one entry of a canonical codebook.
type symCode struct {
	sym  uint32
	len  uint8
	code uint64
}

// assignCodes gives every entry of a symbol-ordered codebook its
// canonical code in place and returns the shortest code length. Canonical
// order is (length, symbol); counting the entries per length yields each
// length's first code, and walking the codebook in symbol order hands out
// consecutive codes within a length — the same codes a (length, symbol)
// sort assigns, in O(n + maxCodeLen) and without reordering the entries.
func assignCodes(codes []symCode) (minLen uint8) {
	var count [maxCodeLen + 1]uint32
	for _, c := range codes {
		count[c.len]++
	}
	next := firstCodes(&count)
	for i := range codes {
		l := codes[i].len
		codes[i].code = next[l]
		next[l]++
	}
	for l := 1; l <= maxCodeLen; l++ {
		if count[l] != 0 {
			return uint8(l)
		}
	}
	return 0
}

// firstCodes returns the canonical first code of every length given the
// per-length entry counts (count[0] must be zero).
func firstCodes(count *[maxCodeLen + 1]uint32) (first [maxCodeLen + 1]uint64) {
	var code uint64
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + uint64(count[l-1])) << 1
		first[l] = code
	}
	return first
}

// Encoder holds reusable encoding scratch (frequency tables, the tree-
// build arena, the codebook, emit tables and the bit writer) so repeated
// Encode calls on a hot path stop allocating. The zero value is ready to
// use; an Encoder is not safe for concurrent use. Output is byte-identical
// to the package-level Encode.
type Encoder struct {
	freq    map[uint32]uint64 // sparse-alphabet frequency fallback
	dense   []uint64          // dense frequencies, indexed by symbol (all-zero between calls)
	touched []uint32          // symbols seen this call, for the sparse reset
	sf      []symFreq         // (symbol, frequency) worklist, in symbol order
	tb      treeBuilder
	codes   []symCode // codebook in symbol order
	encLen  []uint8   // dense emit tables, indexed by symbol
	encCode []uint64
	table   map[uint32]symCode // sparse emit fallback
	w       bitio.Writer

	minLen  uint8 // shortest code length of the last encoding (0: empty)
	hdrBits int   // codebook header bits of the last encoding
}

// ShortestCode returns the shortest code length in the codebook of the
// last AppendEncode call, or 0 when that stream was empty. A 1-bit code
// means one symbol carries at least a third of the stream — the regime
// where the bit stream still has byte-level redundancy for a lossless
// stage to find.
func (e *Encoder) ShortestCode() int { return int(e.minLen) }

// HeaderBits returns the size of the last AppendEncode call's codebook
// header in bits, counts included; the rest of the blob is the symbol
// body.
func (e *Encoder) HeaderBits() int { return e.hdrBits }

// AppendEncode Huffman-codes syms and appends the self-contained blob to
// dst, returning the extended slice. The blob is the compact format:
//
//	uvarint nsyms, uvarint ncodes, and when ncodes > 0 uvarint firstSym;
//	then one bit stream holding, per codebook entry in symbol order, the
//	symbol step (a 0 bit for a step of 1, else a 1 bit and gamma(step-1);
//	absent for the first entry) and gamma(zigzag(len - prevLen) + 1) with
//	prevLen starting at 0, followed directly by the symbol codes.
//
// gamma is the Elias gamma code. Quantization codes cluster around the
// middle bin, so most steps are 1 and neighbouring lengths differ by
// little: an entry typically costs 2–4 bits against the two varint bytes
// of the V1 (symbol-delta, length) pairs.
func (e *Encoder) AppendEncode(dst []byte, syms []uint32) []byte {
	var maxSym uint32
	for _, s := range syms {
		if s > maxSym {
			maxSym = s
		}
	}
	dense := len(syms) > 0 && maxSym < denseAlphabet
	sf := e.sf[:0]
	if dense {
		n := int(maxSym) + 1
		if cap(e.dense) < n {
			e.dense = make([]uint64, n)
		}
		// The dense array holds the all-zero invariant between calls
		// (restored sparsely below), so counting never pays a clear of
		// the full symbol range — with QuantBits=16 that clear used to
		// move 512 KiB per payload. Touched symbols are recorded on first
		// increment and sorted, reproducing the increasing-symbol order
		// the frequency-scan collection produced.
		fr := e.dense[:n]
		touched := e.touched[:0]
		for _, s := range syms {
			if fr[s] == 0 {
				touched = append(touched, s)
			}
			fr[s]++
		}
		slices.Sort(touched)
		for _, s := range touched {
			sf = append(sf, symFreq{sym: s, freq: fr[s]})
			fr[s] = 0
		}
		e.touched = touched[:0]
	} else if len(syms) > 0 {
		if e.freq == nil {
			e.freq = make(map[uint32]uint64)
		} else {
			clear(e.freq)
		}
		for _, s := range syms {
			e.freq[s]++
		}
		for s, f := range e.freq {
			sf = append(sf, symFreq{sym: s, freq: f})
		}
		// The tree build is order-invariant; sorting here only puts the
		// codebook in the symbol order the header is written in.
		slices.SortFunc(sf, func(a, b symFreq) int { return cmp.Compare(a.sym, b.sym) })
	}
	e.sf = sf

	codes := e.tb.codeLengths(e.codes[:0], sf)
	limitLengths(codes)
	e.minLen = assignCodes(codes)
	e.codes = codes

	start := len(dst)
	dst = bitio.AppendUvarint(dst, uint64(len(syms)))
	dst = bitio.AppendUvarint(dst, uint64(len(codes)))
	if len(codes) > 0 {
		dst = bitio.AppendUvarint(dst, uint64(codes[0].sym))
	}
	// The codebook and the symbol codes share one bit stream written
	// straight onto dst — no staging copy, no padding between them.
	e.w.Reset(dst)
	var prevLen uint8
	for i, c := range codes {
		if i > 0 {
			if step := c.sym - codes[i-1].sym; step == 1 {
				e.w.WriteBits(0, 1)
			} else {
				e.w.WriteBits(1, 1)
				writeGamma(&e.w, uint64(step-1))
			}
		}
		writeGamma(&e.w, zigzag(int64(c.len)-int64(prevLen))+1)
		prevLen = c.len
	}
	e.hdrBits = e.w.BitLen() - 8*start

	if dense {
		n := int(maxSym) + 1
		if cap(e.encLen) < n {
			e.encLen = make([]uint8, n)
			e.encCode = make([]uint64, n)
		}
		encLen := e.encLen[:n]
		encCode := e.encCode[:n]
		for _, c := range codes {
			encLen[c.sym] = c.len
			encCode[c.sym] = c.code
		}
		// Pack whole runs of symbols into a local accumulator and hand
		// bitio one wide write per ~57 bits: typical quantization streams
		// average a few bits per symbol, so this trades ~10 WriteBits
		// calls for one. The emitted bit sequence is identical.
		var acc uint64
		var na uint
		for _, s := range syms {
			l := uint(encLen[s])
			if na+l > 57 {
				e.w.WriteBits(acc, na)
				acc, na = 0, 0
			}
			acc = acc<<l | encCode[s]
			na += l
		}
		e.w.WriteBits(acc, na)
	} else {
		if e.table == nil {
			e.table = make(map[uint32]symCode, len(codes))
		} else {
			clear(e.table)
		}
		for _, c := range codes {
			e.table[c.sym] = c
		}
		for _, s := range syms {
			c := e.table[s]
			e.w.WriteBits(c.code, uint(c.len))
		}
	}
	return e.w.Bytes()
}

// writeGamma appends the Elias gamma code of v ≥ 1: bits.Len64(v)-1 zero
// bits, then v itself.
func writeGamma(w *bitio.Writer, v uint64) {
	n := uint(bits.Len64(v))
	if 2*n-1 <= 57 {
		w.WriteBits(v, 2*n-1) // the leading zeros are v's own high bits
		return
	}
	w.WriteBits(0, n-1)
	w.WriteBits(v, n)
}

// zigzag maps a signed delta onto the naturals: 0, -1, 1, -2, ... →
// 0, 1, 2, 3, ...
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// Encode Huffman-codes syms and returns a self-contained byte blob
// (codebook header + bit stream). Decode inverts it.
func Encode(syms []uint32) []byte {
	var e Encoder
	return e.AppendEncode(nil, syms)
}

// Decode inverts Encode. It returns an error for truncated or corrupt input.
func Decode(blob []byte) ([]uint32, error) { return AppendDecode(nil, blob) }

// AppendDecode is Decode appending into dst's spare capacity. One-shot
// callers pay a fresh decode table per call; hot paths should pool a
// Decoder instead.
func AppendDecode(dst []uint32, blob []byte) ([]uint32, error) {
	var d Decoder
	return d.AppendDecode(dst, blob)
}

// lutLong marks a primary-table entry whose bits are the prefix of one or
// more codes longer than the table index; decoding falls through to the
// canonical first-code path. Primary entries pack sym<<8 | len; a zero
// entry is an unassigned (invalid) code.
const lutLong = 0xff

// lutPairFlag marks a primary entry that resolves two complete codes in
// one probe (the len byte then holds the combined length; sym2 and the
// first code's own length live in the parallel lutPair table). The
// sym<<8 | len layout uses bits 0..39, so the flag sits at bit 40 — and
// the uint32 cast of e>>8 drops it when extracting sym1.
const lutPairFlag = uint64(1) << 40

// Decoder holds the reusable decode-side scratch: the parsed codebook, the
// primary lookup table and the canonical overflow tables, kept warm across
// calls so steady-state decoding allocates only the output. The zero value
// is ready to use; a Decoder is not safe for concurrent use — pool one per
// goroutine (internal/sz's Decoder engines do exactly that).
type Decoder struct {
	codes   []symCode
	lut     []uint64 // 2^k entries, k = min(maxLen, TableBits)
	lutPair []uint64 // sym2<<8 | len1 for entries with lutPairFlag
	syms    []uint32 // symbols in canonical order, for the overflow path

	// Canonical decode state for code lengths in (TableBits, maxCodeLen]:
	// at length l, codes occupy [first[l], first[l]+count[l]) and map to
	// syms[base[l]+...].
	first [maxCodeLen + 1]uint64
	base  [maxCodeLen + 1]int32
	count [maxCodeLen + 1]uint32
}

// bitState is a bit-reader over buf: an accumulator, its valid-bit
// count and a byte cursor. Bits of acc beyond nbit always mirror the
// bytes still at pos (the refill contract of bitio.Reader), so a state
// handed from the codebook parse to the symbol loop continues the same
// stream exactly.
type bitState struct {
	buf  []byte
	acc  uint64
	nbit uint
	pos  int
}

// refill tops the accumulator up to at least 57 valid bits, or to every
// bit left in the stream.
func (s *bitState) refill() {
	if s.pos+8 <= len(s.buf) {
		s.acc |= binary.BigEndian.Uint64(s.buf[s.pos:]) >> s.nbit
		adv := (64 - s.nbit) >> 3
		s.pos += int(adv)
		s.nbit += adv * 8
		return
	}
	for s.nbit <= 56 && s.pos < len(s.buf) {
		s.acc |= uint64(s.buf[s.pos]) << (56 - s.nbit)
		s.pos++
		s.nbit += 8
	}
}

// remaining is the number of unread bits.
func (s *bitState) remaining() uint64 { return uint64(s.nbit) + 8*uint64(len(s.buf)-s.pos) }

// gamma reads one Elias gamma code of a value below 2^32 (wider values
// never occur in a valid codebook and are reported as corrupt).
func (s *bitState) gamma() (uint64, error) {
	if s.nbit < 57 {
		s.refill()
	}
	z := uint(bits.LeadingZeros64(s.acc))
	if z > 31 || z >= s.nbit {
		return 0, errors.New("huffman: corrupt or truncated codebook")
	}
	if n := 2*z + 1; n <= s.nbit {
		v := s.acc >> (64 - n)
		s.acc <<= n
		s.nbit -= n
		return v, nil
	}
	s.acc <<= z
	s.nbit -= z
	s.refill()
	if z+1 > s.nbit {
		return 0, fmt.Errorf("huffman: codebook truncated: %w", bitio.ErrUnexpectedEOF)
	}
	v := s.acc >> (63 - z)
	s.acc <<= z + 1
	s.nbit -= z + 1
	return v, nil
}

// bit reads one bit.
func (s *bitState) bit() (uint64, error) {
	if s.nbit == 0 {
		s.refill()
		if s.nbit == 0 {
			return 0, fmt.Errorf("huffman: codebook truncated: %w", bitio.ErrUnexpectedEOF)
		}
	}
	b := s.acc >> 63
	s.acc <<= 1
	s.nbit--
	return b, nil
}

// codebookEntry validates one parsed (symbol, length) entry against the
// running Kraft sum and appends it to codes.
func codebookEntry(codes []symCode, sym, l uint64, kraft *uint64) ([]symCode, error) {
	const full = uint64(1) << maxCodeLen
	if l == 0 || l > maxCodeLen {
		return nil, fmt.Errorf("huffman: invalid code length %d", l)
	}
	if sym > math.MaxUint32 {
		return nil, errors.New("huffman: codebook symbol overflows uint32")
	}
	// A valid codebook satisfies the Kraft inequality; rejecting
	// over-subscribed length sets here keeps the table build safe.
	*kraft += full >> l
	if *kraft > full {
		return nil, errors.New("huffman: over-subscribed codebook")
	}
	return append(codes, symCode{sym: uint32(sym), len: uint8(l)}), nil
}

// AppendDecode decodes a compact-format blob (see Encoder.AppendEncode)
// appending into dst's spare capacity. It returns an error for truncated
// or corrupt input without over-allocating: claimed symbol and codebook
// counts are validated against the bit stream's actual size and the
// codebook against the Kraft inequality before any table is built.
func (d *Decoder) AppendDecode(dst []uint32, blob []byte) ([]uint32, error) {
	nsyms, k, err := bitio.Uvarint(blob)
	if err != nil {
		return nil, fmt.Errorf("huffman: symbol count: %w", err)
	}
	blob = blob[k:]
	ncodes, k, err := bitio.Uvarint(blob)
	if err != nil {
		return nil, fmt.Errorf("huffman: code count: %w", err)
	}
	blob = blob[k:]
	if nsyms > 0 && ncodes == 0 {
		return nil, errors.New("huffman: nonempty stream with empty codebook")
	}
	codes := d.codes[:0]
	s := bitState{}
	if ncodes > 0 {
		sym, k, err := bitio.Uvarint(blob)
		if err != nil {
			return nil, fmt.Errorf("huffman: first codebook symbol: %w", err)
		}
		s.buf = blob[k:]
		// Every entry costs at least two bits, so a corrupt count cannot
		// drive the codebook allocation.
		if ncodes > s.remaining()/2+1 {
			return nil, fmt.Errorf("huffman: %d codebook entries claimed in %d bits", ncodes, s.remaining())
		}
		var kraft uint64
		var prevLen uint64
		for i := uint64(0); i < ncodes; i++ {
			if i > 0 {
				b, err := s.bit()
				if err != nil {
					return nil, err
				}
				step := uint64(1)
				if b == 1 {
					g, err := s.gamma()
					if err != nil {
						return nil, err
					}
					step = g + 1
				}
				sym += step
			}
			g, err := s.gamma()
			if err != nil {
				return nil, err
			}
			zz := g - 1
			l := prevLen + (zz>>1 ^ -(zz & 1)) // un-zigzag; wraps to an invalid length on corrupt input
			if codes, err = codebookEntry(codes, sym, l, &kraft); err != nil {
				return nil, err
			}
			prevLen = l
		}
	}
	d.codes = codes
	if nsyms == 0 {
		return dst[:0], nil
	}
	return d.decodeSymbols(dst, nsyms, s)
}

// AppendDecodeV1 decodes a blob in the V1 layout: a length-prefixed
// header of uvarint nsyms, ncodes and (symbol-delta, length) pairs in
// symbol order, then the symbol codes from the next byte boundary. It is
// the entropy format of version-1 sz payloads, kept so archives written
// before the compact codebook stay readable; nothing encodes it anymore.
func (d *Decoder) AppendDecodeV1(dst []uint32, blob []byte) ([]uint32, error) {
	hdr, n, err := bitio.Bytes(blob)
	if err != nil {
		return nil, fmt.Errorf("huffman: reading header: %w", err)
	}
	body := blob[n:]

	nsyms, k, err := bitio.Uvarint(hdr)
	if err != nil {
		return nil, fmt.Errorf("huffman: symbol count: %w", err)
	}
	hdr = hdr[k:]
	ncodes, k, err := bitio.Uvarint(hdr)
	if err != nil {
		return nil, fmt.Errorf("huffman: code count: %w", err)
	}
	hdr = hdr[k:]
	if nsyms > 0 && ncodes == 0 {
		return nil, errors.New("huffman: nonempty stream with empty codebook")
	}
	// Every codebook entry costs at least two header bytes, so a corrupt
	// count cannot drive the allocation below.
	if ncodes > uint64(len(hdr)) {
		return nil, fmt.Errorf("huffman: %d codebook entries claimed in a %d-byte header", ncodes, len(hdr))
	}

	var kraft uint64
	codes := d.codes[:0]
	prev := uint64(0)
	for i := uint64(0); i < ncodes; i++ {
		ds, k, err := bitio.Uvarint(hdr)
		if err != nil {
			return nil, fmt.Errorf("huffman: codebook symbol %d: %w", i, err)
		}
		hdr = hdr[k:]
		l, k, err := bitio.Uvarint(hdr)
		if err != nil {
			return nil, fmt.Errorf("huffman: codebook length %d: %w", i, err)
		}
		hdr = hdr[k:]
		if i > 0 && ds == 0 {
			return nil, fmt.Errorf("huffman: duplicate codebook symbol %d", prev)
		}
		if ds > math.MaxUint32 {
			return nil, errors.New("huffman: codebook symbol overflows uint32")
		}
		if codes, err = codebookEntry(codes, prev+ds, l, &kraft); err != nil {
			return nil, err
		}
		prev += ds
	}
	d.codes = codes
	if nsyms == 0 {
		return dst[:0], nil
	}
	return d.decodeSymbols(dst, nsyms, bitState{buf: body})
}

// decodeSymbols builds the tables for the parsed, symbol-ordered codebook
// in d.codes and decodes nsyms symbols from s.
func (d *Decoder) decodeSymbols(dst []uint32, nsyms uint64, s bitState) ([]uint32, error) {
	// Every symbol costs at least one bit, so a corrupt count cannot
	// drive the output allocation.
	if nsyms > s.remaining() {
		return nil, fmt.Errorf("huffman: %d symbols claimed but bit stream holds %d bits", nsyms, s.remaining())
	}
	tableBits, maxLen := d.build(d.codes)

	// The symbol loop runs on a local bit-reader state — accumulator,
	// valid-bit count and byte cursor — instead of a bitio.Reader, so the
	// per-symbol cost is a table load and two shifts with no method-call
	// or pointer traffic. The refill mirrors bitState.refill exactly
	// (whole-word loads with the byte tail near the end; bits of acc
	// beyond nbit mirror the bytes still at pos), and a code claiming
	// more bits than the stream holds reports the same truncation error
	// Consume used to.
	out := dst[:0]
	if cap(out) < int(nsyms) {
		out = make([]uint32, 0, nsyms)
	}
	out = out[:nsyms]
	lut := d.lut
	lutPair := d.lutPair[:len(lut)]
	// len(lut) is a power of two, so masking the probe index proves the
	// accesses in bounds — without it the variable shift below defeats
	// bounds-check elimination and every probe pays a checked branch.
	mask := uint64(len(lut) - 1)
	shift := 64 - tableBits
	body, acc, nbit, pos := s.buf, s.acc, s.nbit, s.pos
	for n := 0; n < int(nsyms); n++ {
		// Refill only when the primary probe could run short: the bits of
		// acc beyond nbit mirror the bytes still at pos, so the probe
		// value is the same either way and a deep codebook (large maxLen)
		// does not force a refill per symbol — short, frequent codes
		// refill once per ~(64-tableBits) consumed bits. The overflow
		// path refills again for its maxLen-bit view.
		if nbit < tableBits {
			if pos+8 <= len(body) {
				acc |= binary.BigEndian.Uint64(body[pos:]) >> nbit
				adv := (64 - nbit) >> 3
				pos += int(adv)
				nbit += adv * 8
			} else {
				for nbit <= 56 && pos < len(body) {
					acc |= uint64(body[pos]) << (56 - nbit)
					pos++
					nbit += 8
				}
			}
		}
		idx := (acc >> shift) & mask
		e := lut[idx]
		l := uint(e & 0xff)
		if l == 0 {
			return nil, fmt.Errorf("huffman: invalid code at symbol %d", n)
		}
		if l != lutLong {
			if e&lutPairFlag != 0 && n+1 < int(nsyms) {
				// Paired entry: two complete codes in one probe.
				if l > nbit {
					return nil, fmt.Errorf("huffman: bit stream truncated at symbol %d: %w", n, bitio.ErrUnexpectedEOF)
				}
				acc <<= l
				nbit -= l
				out[n] = uint32(e >> 8)
				n++
				out[n] = uint32(lutPair[idx&mask] >> 8)
				continue
			}
			if e&lutPairFlag != 0 {
				// The claimed symbol count ends between the pair: consume
				// only the first code's own length.
				l = uint(lutPair[idx&mask] & 0xff)
			}
			if l > nbit {
				return nil, fmt.Errorf("huffman: bit stream truncated at symbol %d: %w", n, bitio.ErrUnexpectedEOF)
			}
			acc <<= l
			nbit -= l
			out[n] = uint32(e >> 8)
			continue
		}
		// Overflow path: resolve codes longer than the primary table by
		// canonical (first code, offset) comparison per length.
		if nbit < maxLen {
			if pos+8 <= len(body) {
				acc |= binary.BigEndian.Uint64(body[pos:]) >> nbit
				adv := (64 - nbit) >> 3
				pos += int(adv)
				nbit += adv * 8
			} else {
				for nbit <= 56 && pos < len(body) {
					acc |= uint64(body[pos]) << (56 - nbit)
					pos++
					nbit += 8
				}
			}
		}
		v := acc >> (64 - maxLen)
		matched := false
		for cl := tableBits + 1; cl <= maxLen; cl++ {
			cnt := d.count[cl]
			if cnt == 0 {
				continue
			}
			c := v >> (maxLen - cl)
			if c < d.first[cl] {
				continue
			}
			off := c - d.first[cl]
			if off >= uint64(cnt) {
				continue
			}
			if cl > nbit {
				return nil, fmt.Errorf("huffman: bit stream truncated at symbol %d: %w", n, bitio.ErrUnexpectedEOF)
			}
			acc <<= cl
			nbit -= cl
			out[n] = d.syms[int(d.base[cl])+int(off)]
			matched = true
			break
		}
		if !matched {
			return nil, fmt.Errorf("huffman: invalid code at symbol %d", n)
		}
	}
	return out, nil
}

// build (re)fills the decoder's tables from a symbol-ordered codebook and
// returns the primary table's index width and the maximum code length.
// Canonical codes come from the per-length counts (see assignCodes), and
// the overflow path's canonical-order symbol table is filled by the same
// counting sort — no comparison sort anywhere. The codebook must be
// non-empty and satisfy Kraft (validated by the caller), which
// guarantees every fill range below stays in bounds.
func (d *Decoder) build(codes []symCode) (tableBits uint, maxLen uint) {
	var count [maxCodeLen + 1]uint32
	for _, c := range codes {
		count[c.len]++
	}
	maxLen = maxCodeLen
	for count[maxLen] == 0 {
		maxLen--
	}
	tableBits = min(maxLen, TableBits)
	next := firstCodes(&count)
	var base int32
	for l := 1; l <= int(maxLen); l++ {
		d.first[l] = next[l]
		d.base[l] = base
		d.count[l] = count[l]
		base += int32(count[l])
	}

	size := 1 << tableBits
	if cap(d.lut) < size {
		d.lut = make([]uint64, size)
	}
	d.lut = d.lut[:size]
	clear(d.lut)
	if cap(d.syms) < len(codes) {
		d.syms = make([]uint32, len(codes))
	}
	syms := d.syms[:len(codes)]
	d.syms = syms
	for _, c := range codes {
		cl := uint(c.len)
		code := next[cl]
		next[cl]++
		syms[d.base[cl]+int32(code-d.first[cl])] = c.sym
		if cl <= tableBits {
			entry := uint64(c.sym)<<8 | uint64(c.len)
			lo := code << (tableBits - cl)
			hi := lo + 1<<(tableBits-cl)
			for j := lo; j < hi; j++ {
				d.lut[j] = entry
			}
			continue
		}
		d.lut[code>>(cl-tableBits)] = lutLong
	}

	// Second pass: pair entries. Where the first code leaves enough index
	// bits to fully determine a second complete code, the entry consumes
	// both in one probe: quantization streams are dominated by one short
	// code (values near the prediction), so most probes then emit two
	// symbols. The paired entry keeps sym1 and the combined length and
	// sets lutPairFlag; the parallel lutPair table carries sym2 and the
	// first code's own length (needed when the claimed symbol count ends
	// between the two).
	if cap(d.lutPair) < size {
		d.lutPair = make([]uint64, size)
	}
	d.lutPair = d.lutPair[:size]
	for idx, e := range d.lut {
		l1 := uint(e & 0xff)
		if l1 == 0 || l1 == lutLong || l1 > tableBits {
			continue
		}
		idx2 := (uint(idx) << l1) & uint(size-1)
		e2 := d.lut[idx2]
		l2 := uint(e2 & 0xff)
		if e2&lutPairFlag != 0 {
			// idx2 was already paired; recover its first code's own length.
			l2 = uint(d.lutPair[idx2] & 0xff)
		}
		if l2 == 0 || l2 == lutLong || l1+l2 > tableBits {
			continue
		}
		d.lutPair[idx] = uint64(uint32(e2>>8))<<8 | uint64(l1)
		d.lut[idx] = (e &^ 0xff) | uint64(l1+l2) | lutPairFlag
	}
	return tableBits, maxLen
}
