package ir

import "math/bits"

// BitSet is a dense bit set over virtual register numbers, call graph node
// IDs, or any small non-negative integers. The zero value of a properly
// sized BitSet is empty.
//
// Beyond liveness analysis, the whole-program analyzer keys BitSets by
// call graph node ID for web membership, cluster membership, and traversal
// visited sets: on large call graphs the word-wise operations (union,
// intersection test, population count, iteration) replace per-element map
// traffic on the analyzer's hottest paths.
type BitSet []uint64

// NewBitSet returns a bit set able to hold values in [0, n].
func NewBitSet(n int) BitSet { return make(BitSet, bitWords(n)) }

// bitWords is the word count of a bit set able to hold values in [0, n].
func bitWords(n int) int { return (n + 64) / 64 }

// CarveBitSets returns count zeroed bit sets able to hold values in
// [0, n], all cut from one word slab. It reuses slab and sets when they
// are large enough, zeroing the slab; pass the returned pair back on the
// next call. Sets carved earlier from the same slab are overwritten.
func CarveBitSets(slab []uint64, sets []BitSet, count, n int) ([]uint64, []BitSet) {
	w := bitWords(n)
	if cap(slab) < count*w {
		slab = make([]uint64, count*w)
	} else {
		slab = slab[:count*w]
		clear(slab)
	}
	if cap(sets) < count {
		sets = make([]BitSet, count)
	} else {
		sets = sets[:count]
	}
	for i := range sets {
		sets[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return slab, sets
}

// Set adds i to the set.
func (s BitSet) Set(i int) { s[i/64] |= 1 << uint(i%64) }

// Clear removes i from the set.
func (s BitSet) Clear(i int) { s[i/64] &^= 1 << uint(i%64) }

// Has reports whether i is in the set.
func (s BitSet) Has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }

// OrWith unions other into s, reporting whether s changed.
func (s BitSet) OrWith(other BitSet) bool {
	changed := false
	for i := range s {
		old := s[i]
		s[i] |= other[i]
		if s[i] != old {
			changed = true
		}
	}
	return changed
}

// Copy copies other into s.
func (s BitSet) Copy(other BitSet) { copy(s, other) }

// Clone returns an independent copy of s.
func (s BitSet) Clone() BitSet {
	out := make(BitSet, len(s))
	copy(out, s)
	return out
}

// Count returns the number of elements.
func (s BitSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s BitSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and other share any element, word-wise —
// the web interference test of §4.1.3.
func (s BitSet) Intersects(other BitSet) bool {
	n := len(s)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		if s[i]&other[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and other hold the same elements (both sized
// over the same universe).
func (s BitSet) Equal(other BitSet) bool {
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order.
func (s BitSet) ForEach(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			fn(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Elems appends the elements in ascending order to dst and returns it.
func (s BitSet) Elems(dst []int) []int {
	for wi, w := range s {
		for w != 0 {
			dst = append(dst, wi*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Fill adds every value in [0, n) to the set.
func (s BitSet) Fill(n int) {
	for i := 0; i < n/64; i++ {
		s[i] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 {
		s[n/64] |= (1 << uint(rem)) - 1
	}
}

// BitArena carves bit sets out of large zeroed slabs, batching the
// allocations a construction loop would otherwise pay once per set (web
// identification builds tens of thousands of node sets per analysis).
// Carved sets are permanently backed — the arena only batches allocation
// and never reclaims or reuses memory — so they may outlive the arena
// freely. An arena must not be shared across goroutines; the zero value
// is ready to use.
type BitArena struct {
	free []uint64
}

// New returns a zeroed bit set able to hold values in [0, n], carved from
// the arena's current slab. The capacity is clipped so appends through
// the set can never touch a sibling's words.
func (a *BitArena) New(n int) BitSet {
	w := bitWords(n)
	if len(a.free) < w {
		// Size chunks at several sets' worth so a typical construction
		// pays one allocation for many sets, without holding more than
		// one chunk of slack.
		chunk := 8 * w
		if chunk < 1024 {
			chunk = 1024
		}
		a.free = make([]uint64, chunk)
	}
	s := BitSet(a.free[:w:w])
	a.free = a.free[w:]
	return s
}
