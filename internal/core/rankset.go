package core

// RankSet is a set of the ranks below a job's size, one bit each: a
// protocol's record of the peers whose marker it has had this wave is NP
// bits a process, not NP bytes.
type RankSet []uint64

// NewRankSet returns an empty set for ranks 0..n-1.
func NewRankSet(n int) RankSet { return make(RankSet, (n+63)/64) }

// Set adds rank r.
func (s RankSet) Set(r int) { s[r>>6] |= 1 << (r & 63) }

// Has reports whether rank r is in the set.
func (s RankSet) Has(r int) bool { return s[r>>6]&(1<<(r&63)) != 0 }

// Clear empties the set.
func (s RankSet) Clear() { clear(s) }
