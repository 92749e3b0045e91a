package tcam

// The reference engines: linear sweeps with Lookup's and Search's exact
// side effects (stats and frequency). The differential property tests,
// FuzzTCAMEngine and the engine bench grid hold the indexed CAM and the
// bit-sliced TCAM to them; TEntry.Matches is the match spec.

func (c *CAM) LookupNaive(pattern uint32) (idx int, ok bool) {
	c.stats.Searches++
	for i := 0; i < c.hi; i++ {
		if c.valid[i] && c.pattern[i] == pattern {
			c.freq[i]++
			c.stats.Hits++
			return i, true
		}
	}
	return 0, false
}

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
