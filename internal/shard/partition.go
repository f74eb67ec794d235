package shard

// Range is one half-open work slice [Lo, Hi).
type Range struct{ Lo, Hi int }

// Ranges splits [0, n) into at most k contiguous ranges of near-equal
// size (sizes differ by at most one, larger ranges first), dropping empty
// tails when n < k. The split is a pure function of (n, k): the
// coordinator and any replay of the plan agree on every boundary.
func Ranges(n, k int) []Range {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([]Range, k)
	q, r := n/k, n%k
	lo := 0
	for i := range out {
		hi := lo + q
		if i < r {
			hi++
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}
