package tcam

// The reference engine: a linear sweep with Search's exact side effects
// (stats and frequency). The differential property tests,
// FuzzTCAMEngine and the engine bench grid hold the bit-sliced TCAM to
// it; TEntry.Matches is the match spec.

func (t *TCAM) SearchNaive(key uint32) (idx int, ok bool) {
	t.stats.Searches++
	for i := 0; i < t.hi; i++ {
		if t.valid[i] && t.ent[i].Matches(key) {
			t.freq[i]++
			t.stats.Hits++
			return i, true
		}
	}
	return 0, false
}
