package core

import (
	"math/bits"

	"repro/internal/word"
)

// Bit-packed kernels (tier T2 of the kernel ladder, see kernels.go).
//
// For d ≤ 4 a word's digits pack into machine words (word.AppendPacked)
// and Theorem 2 reduces to run arithmetic on shift-aligned agreement
// masks. Write c for the alignment shift (y-position = x-position + c,
// 1-based, c ∈ [-(k-1), k-1]) and L_c for the longest agreement run at
// shift c. A matching pair (i, j, θ) with j = i + c - θ + 1 … after
// minimization over each shift only the longest run matters, and
//
//	bestL = min(k, min_c 2k - 2L_c - c)
//	bestR = min(k, min_c 2k - 2L_c + c)
//
// reproduces Theorem 2's minima exactly. The anchors follow
// Algorithm 4's tree walk (Scratch.treeAnchors): an optimal run is
// maximal, hence an explicit vertex of the compact prefix tree of
// X⊥Y⊤, and the walk keeps the first optimal vertex in post-order
// with children ascending. So among the longest runs of the
// qualifying shifts (one per shift: a run scoring ≤ k fills at least
// half of its window), the run whose label X[i..i+θ-1] comes first wins
// — labels compare digit by digit, and a label comes before each of
// its proper prefixes — with the trivial-path sentinel {dist: k} when
// no run scores ≤ k. The equivalence is pinned by
// TestPackedAnchorsMatchTreeWalk and the fuzz target.
//
// Two evaluation depths:
//
//   - distance only: a run that could improve the running minimum is
//     longer than half its window (both minima start at k, the trivial
//     bound), hence spans the window's center digit — so the longest
//     relevant run comes from two trailing/leading-zero counts around
//     the center, branch-free, no loop (packedDistance1/N).
//   - full anchors: runs scoring exactly k can fill exactly half their
//     window, which need not span the center, so the anchor kernel
//     computes every shift's exact longest run with the m &= m<<b
//     reduction (packedAnchors1). Exact anchors are kept to the
//     single-word regime (k·b ≤ 64); beyond it route construction
//     stays on the scratch tree walk.

// maxPackedBits bounds the packed operand size the bit tier accepts
// for distance evaluation; beyond it (k > 1024 at d=2, k > 512 at
// d=3/4) the scratch kernels take over.
const maxPackedBits = 1024

// packedSingleWord reports whether DG(d,k) operands fit one uint64 —
// the regime with the full packed kernel set (distance, anchors,
// routes, directed overlap).
func packedSingleWord(d, k int) bool {
	b := word.PackedBits(d)
	return b != 0 && k*b <= 64
}

// packedEligible reports whether the packed tier evaluates distances
// for DG(d,k) at all (single- or multi-word).
func packedEligible(d, k int) bool {
	b := word.PackedBits(d)
	return b != 0 && k*b <= maxPackedBits
}

// packedScratch holds the packed operand and bookkeeping buffers of
// one Kernels instance. Zero value ready; buffers grow on first use.
type packedScratch struct {
	x, y []uint64
	lens []int16 // per-shift longest run, indexed c+k-1
}

// load packs both operands, reusing the scratch vectors.
func (ps *packedScratch) load(x, y word.Word) {
	ps.x = x.AppendPacked(ps.x[:0])
	ps.y = y.AppendPacked(ps.y[:0])
}

// packedAgree1 returns the filled agreement mask of two packed
// single-word operands: every agreeing digit contributes b set bits,
// so runs of agreeing digits are runs of set bits and all run
// arithmetic works in bit space with stride b. The caller masks the
// result to the alignment window.
func packedAgree1(x, y uint64, b int) uint64 {
	v := x ^ y
	if b == 1 {
		return ^v
	}
	t := ^(v | v>>1) & 0x5555555555555555
	return t | t<<1
}

// runThrough1 returns the length (in digits) of the agreement run
// containing the digit whose low bit is at position bit, 0 if that
// digit disagrees. Branch-free: the mask is filled, so the two scans
// count whole digits.
func runThrough1(g uint64, bit, b int) int {
	up := bits.TrailingZeros64(^(g >> uint(bit)))
	dn := bits.LeadingZeros64(^(g << uint(64-bit)))
	return (up + dn) / b
}

// packedDistance1 evaluates Theorem 2's two minima on single-word
// packed operands. Every shift is scanned, but only via the center
// digit of its window: a run short of half the window cannot beat the
// running minima (both start at the trivial bound k), and a longer
// run necessarily spans the center, where runThrough1 measures it
// exactly. Underestimates for non-qualifying runs only produce values
// that are ≥ k and therefore harmless. Returns the unclamped minima;
// the distance is min(k, dL, dR).
func packedDistance1(x, y uint64, k, b int) (dL, dR int) {
	kb := uint(k * b)
	full := ^uint64(0)
	if kb < 64 {
		full = uint64(1)<<kb - 1
	}
	dL, dR = k, k
	{
		g := packedAgree1(x, y, b) & full
		n := runThrough1(g, (k>>1)*b, b)
		if v := 2 * (k - n); v < dL {
			dL = v
			dR = v
		}
	}
	digMask := uint64(1)<<uint(b) - 1
	low := uint64(0)
	for a := 1; a <= k-1; a++ {
		ab := uint(a * b)
		low = low<<uint(b) | digMask
		w := k - a
		gp := packedAgree1(x, y>>ab, b) & (full >> ab)
		gm := packedAgree1(x, y<<ab, b) & full &^ low
		np := runThrough1(gp, (w>>1)*b, b)
		nm := runThrough1(gm, (a+w>>1)*b, b)
		if v := 2*(k-np) - a; v < dL {
			dL = v
		}
		if v := 2*(k-np) + a; v < dR {
			dR = v
		}
		if v := 2*(k-nm) + a; v < dL {
			dL = v
		}
		if v := 2*(k-nm) - a; v < dR {
			dR = v
		}
	}
	return dL, dR
}

// packedAnchors1 computes the exact Theorem 2 anchors on single-word
// packed operands, identical to Scratch.treeAnchors. Pass 1 records
// every shift's exact longest run (the m &= m<<b reduction, its +c
// and -c dependency chains interleaved) and both minima. Pass 2
// revisits only the qualifying shifts and keeps, per side, the run
// whose label X[i..i+θ-1] the tree walk reaches first (labelBefore).
// When no run scores ≤ k, an anchor stays the trivial-path sentinel.
func packedAnchors1(x, y uint64, k, b int, lens []int16) (aL, aR anchor) {
	kb := uint(k * b)
	full := ^uint64(0)
	if kb < 64 {
		full = uint64(1)<<kb - 1
	}
	dL, dR := k+1, k+1 // only runs scoring ≤ k are candidates
	digMask := uint64(1)<<uint(b) - 1
	low := uint64(0)
	for a := 0; a <= k-1; a++ { // a = 0: both chains scan shift 0
		ab := uint(a * b)
		gp := packedAgree1(x, y>>ab, b) & (full >> ab)
		gm := packedAgree1(x, y<<ab, b) & full &^ low
		low = low<<uint(b) | digMask
		np, nm := 0, 0
		for gp != 0 && gm != 0 {
			gp &= gp << uint(b)
			gm &= gm << uint(b)
			np++
			nm++
		}
		for gp != 0 {
			gp &= gp << uint(b)
			np++
		}
		for gm != 0 {
			gm &= gm << uint(b)
			nm++
		}
		lens[a+k-1] = int16(np)
		lens[k-1-a] = int16(nm)
		if np > 0 {
			if v := 2*(k-np) - a; v < dL {
				dL = v
			}
			if v := 2*(k-np) + a; v < dR {
				dR = v
			}
		}
		if nm > 0 {
			if v := 2*(k-nm) + a; v < dL {
				dL = v
			}
			if v := 2*(k-nm) - a; v < dR {
				dR = v
			}
		}
	}
	aL, aR = anchor{dist: k}, anchor{dist: k}
	var labL, labR uint64 // labels of the winners so far (θ = 0: none)
	for c := -(k - 1); c <= k-1; c++ {
		n := int(lens[c+k-1])
		if n == 0 {
			continue
		}
		okL := dL <= k && 2*(k-n)-c == dL
		okR := dR <= k && 2*(k-n)+c == dR
		if !okL && !okR {
			continue
		}
		// A run scoring ≤ k fills at least half of its window, so it is
		// the shift's only longest run: the reduced mask has one digit.
		var r uint64
		if c >= 0 {
			cb := uint(c * b)
			r = packedAgree1(x, y>>cb, b) & (full >> cb)
		} else {
			cb := uint(-c * b)
			r = packedAgree1(x, y<<cb, b) & full &^ (uint64(1)<<cb - 1)
		}
		for i := 1; i < n; i++ {
			r &= r << uint(b)
		}
		e := bits.TrailingZeros64(r) / b // 0-based end digit of the run
		a0 := e - n + 1                  // 0-based start digit
		lab := x >> uint(a0*b) & (uint64(1)<<uint(n*b) - 1)
		if okL && (aL.theta == 0 || labelBefore(lab, n, labL, aL.theta, b)) {
			aL, labL = anchor{s: a0 + 1, t: e + 1 + c, theta: n, dist: dL}, lab
		}
		if okR && (aR.theta == 0 || labelBefore(lab, n, labR, aR.theta, b)) {
			aR, labR = anchor{s: e + 1, t: a0 + 1 + c, theta: n, dist: dR}, lab
		}
	}
	return aL, aR
}

// labelBefore reports whether packed label p (n digits) precedes label
// q (m digits) in the post-order of the compact prefix tree: children
// are visited in ascending digit order, and a vertex after all of its
// descendants, so the first differing digit decides and a label
// precedes each of its proper prefixes.
func labelBefore(p uint64, n int, q uint64, m, b int) bool {
	diff := (p ^ q) & (uint64(1)<<uint(min(n, m)*b) - 1)
	if diff == 0 {
		return n > m
	}
	sh := uint(bits.TrailingZeros64(diff) / b * b)
	digMask := uint64(1)<<uint(b) - 1
	return p>>sh&digMask < q>>sh&digMask
}

// packedOverlap1 is Property 1's suffix/prefix overlap on single-word
// packed operands: the largest s < k with suffix_s(x) = prefix_s(y).
// The overlap value is unique, so this agrees with the Morris–Pratt
// scan by definition. Callers handle x = y (overlap k) beforehand.
func packedOverlap1(x, y uint64, k, b int) int {
	for s := k - 1; s >= 1; s-- {
		m := uint64(1)<<uint(s*b) - 1
		if x>>uint((k-s)*b) == y&m {
			return s
		}
	}
	return 0
}

// shiftView is one alignment of the multi-word distance scan: the
// agreement between x and y shifted by sbits (toward lower positions
// when plus, higher when minus), windowed to [loBit, hiBit).
type shiftView struct {
	x, y         []uint64
	b            int
	sbits        int
	plus         bool
	loBit, hiBit int
}

// agreeWord materializes word i of the view's filled agreement mask.
func (sv *shiftView) agreeWord(i int) uint64 {
	base := i << 6
	if base >= sv.hiBit || base+64 <= sv.loBit {
		return 0
	}
	var yw uint64
	off, sh := sv.sbits>>6, uint(sv.sbits&63)
	if sv.plus {
		j := i + off
		if j < len(sv.y) {
			yw = sv.y[j] >> sh
			if sh != 0 && j+1 < len(sv.y) {
				yw |= sv.y[j+1] << (64 - sh)
			}
		}
	} else {
		j := i - off
		if j >= 0 {
			yw = sv.y[j] << sh
		}
		if sh != 0 && j-1 >= 0 {
			yw |= sv.y[j-1] >> (64 - sh)
		}
	}
	g := packedAgree1(sv.x[i], yw, sv.b)
	if lo := sv.loBit - base; lo > 0 {
		g &= ^uint64(0) << uint(lo)
	}
	if hi := sv.hiBit - base; hi < 64 {
		g &= uint64(1)<<uint(hi) - 1
	}
	return g
}

// runThrough returns the digit length of the agreement run containing
// the digit at absolute bit position bit, materializing only the
// words the run actually touches (typically one).
func (sv *shiftView) runThrough(bit int) int {
	wi, wb := bit>>6, uint(bit&63)
	g := sv.agreeWord(wi)
	up := bits.TrailingZeros64(^(g >> wb))
	if int(wb)+up == 64 {
		for j := wi + 1; (j << 6) < sv.hiBit; j++ {
			t := bits.TrailingZeros64(^sv.agreeWord(j))
			up += t
			if t < 64 {
				break
			}
		}
	}
	dn := 0
	if wb > 0 {
		dn = bits.LeadingZeros64(^(g << (64 - wb)))
	}
	if dn == int(wb) && bit > int(wb) {
		for j := wi - 1; j >= 0; j-- {
			t := bits.LeadingZeros64(^sv.agreeWord(j))
			dn += t
			if t < 64 {
				break
			}
		}
	}
	return (up + dn) / sv.b
}

// packedDistanceN evaluates Theorem 2's two minima on multi-word
// packed operands with the same center-digit argument as
// packedDistance1; each shift materializes only the agreement words
// around its window center. Returns the unclamped minima.
func (ps *packedScratch) packedDistanceN(k, b int) (dL, dR int) {
	dL, dR = k, k
	sv := shiftView{x: ps.x, y: ps.y, b: b}
	{
		sv.sbits, sv.plus, sv.loBit, sv.hiBit = 0, true, 0, k*b
		n := sv.runThrough((k >> 1) * b)
		if v := 2 * (k - n); v < dL {
			dL = v
			dR = v
		}
	}
	for a := 1; a <= k-1; a++ {
		w := k - a
		sv.sbits, sv.plus, sv.loBit, sv.hiBit = a*b, true, 0, w*b
		np := sv.runThrough((w >> 1) * b)
		sv.plus, sv.loBit, sv.hiBit = false, a*b, k*b
		nm := sv.runThrough((a + w>>1) * b)
		if v := 2*(k-np) - a; v < dL {
			dL = v
		}
		if v := 2*(k-np) + a; v < dR {
			dR = v
		}
		if v := 2*(k-nm) + a; v < dL {
			dL = v
		}
		if v := 2*(k-nm) - a; v < dR {
			dR = v
		}
	}
	return dL, dR
}
