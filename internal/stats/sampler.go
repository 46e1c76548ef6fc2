package stats

// SampleKOfN returns k distinct integers from [0, n) using Floyd's algorithm,
// in O(k) expected time and O(k) space. The result is not sorted.
func SampleKOfN(k, n int, r *RNG) []int {
	if k < 0 || k > n {
		panic("stats: SampleKOfN with k out of range")
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
