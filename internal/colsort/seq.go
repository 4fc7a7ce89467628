package colsort

import "slices"

// SeqColumnsort is a sequential mirror of the parallel algorithm: the same
// shapes, permutations and recursion, executed on a slice.  It exists so
// the permutation logic can be validated exhaustively (0-1 principle)
// without spinning up machines, and so the parallel runs can be checked
// step-for-step against it.
func SeqColumnsort(keys []int64) []int64 {
	n := len(keys)
	if n&(n-1) != 0 || n == 0 {
		panic("colsort: SeqColumnsort needs a power-of-two length")
	}
	a := make([]kv, n)
	for i, k := range keys {
		a[i] = kv{key: k, tag: int32(i)}
	}
	seqRec(a, make([]kv, n), 8)
	out := make([]int64, n)
	for i, e := range a {
		out[i] = e.key
	}
	return out
}

// seqRec sorts a in place.  tmp is scratch of the same length: each
// permutation writes into it and copies back, and column recursions
// borrow its matching sub-ranges, so the whole sort allocates nothing.
func seqRec(a, tmp []kv, baseSize int) {
	size := len(a)
	if size == 1 {
		return
	}
	if size <= baseSize {
		slices.SortFunc(a, cmpKV)
		return
	}
	r, s := Shape(size)

	seqColumns(a, tmp, r, baseSize) // 1
	for pos, e := range a {         // 2: transpose
		tmp[pos%s*r+pos/s] = e
	}
	copy(a, tmp)
	seqColumns(a, tmp, r, baseSize) // 3
	for pos, e := range a {         // 4: untranspose
		tmp[pos%r*s+pos/r] = e
	}
	copy(a, tmp)
	seqColumns(a, tmp, r, baseSize) // 5
	for pos, e := range a {         // 6: shift
		tmp[(pos+r/2)%size] = e
	}
	copy(a, tmp)
	seqColumns(a, tmp, r, baseSize) // 7
	for pos, e := range a {         // 8: inverse shift with column-0 wrap
		switch {
		case pos >= r:
			tmp[pos-r/2] = e
		case pos < r/2:
			tmp[pos] = e
		default:
			tmp[size-r+pos] = e
		}
	}
	copy(a, tmp)
}

// seqColumns sorts each r-key column of a.
func seqColumns(a, tmp []kv, r, baseSize int) {
	for c := 0; c < len(a); c += r {
		seqRec(a[c:c+r], tmp[c:c+r], baseSize)
	}
}
