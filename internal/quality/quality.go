// Package quality implements the error-budget policies that gate
// approximate matches. The paper's shipped mechanism is a per-word
// relative threshold (§3.2); its future-work section (§7) proposes a
// window-based cumulative budget — "use cumulative error threshold over a
// set of data words defined by a window, so as to achieve more
// approximate matches" — which this package also provides so the
// extension can be evaluated (ablation-window).
package quality

import "fmt"

// Budget decides whether individual approximations are admissible and
// tracks any running state. Implementations are not safe for concurrent
// use; each encoder owns one.
type Budget interface {
	// Allow reports whether an approximation with the given relative
	// error may be committed, recording its spending if allowed. It does
	// not advance the window; the encoder calls Advance once per word.
	Allow(relErr float64) bool
	// Advance marks one word processed (window progression).
	Advance()
	// Reset starts a new window.
	Reset()
	// Threshold returns the nominal per-word threshold (fraction).
	Threshold() float64
}

// PerWord is the paper's shipped policy: every word must individually
// stay within the threshold.
type PerWord struct {
	bound float64
}

// perWord holds the per-word budget of every valid threshold. A PerWord
// never changes once built, so every encoder at a threshold shares one,
// and neither NewPerWord nor an encoder's threshold switch allocates.
var perWord = func() (t [101]PerWord) {
	for pct := range t {
		t[pct].bound = float64(pct) / 100
	}
	return t
}()

// NewPerWord returns the per-word budget for a threshold in percent.
func NewPerWord(thresholdPct int) (*PerWord, error) {
	if thresholdPct < 0 || thresholdPct > 100 {
		return nil, fmt.Errorf("quality: threshold %d%% out of range", thresholdPct)
	}
	return &perWord[thresholdPct], nil
}

// Allow admits the approximation when the word error is within bound.
func (p *PerWord) Allow(relErr float64) bool { return relErr <= p.bound }

// Advance is a no-op: per-word budgets carry no state.
func (p *PerWord) Advance() {}

// Reset is a no-op: per-word budgets carry no state.
func (p *PerWord) Reset() {}

// Threshold returns the per-word bound.
func (p *PerWord) Threshold() float64 { return p.bound }

// Window is the §7 future-work policy: a window of W words shares a
// cumulative budget of W times the per-word threshold, and a single word
// may spend up to boost times the threshold as long as the cumulative
// budget holds. The mean error over any window therefore still respects
// the per-word threshold, while bursts of slack from exactly-matched
// words can be spent on otherwise-unmatchable words — exactly the
// video/image use case the paper sketches.
type Window struct {
	bound     float64 // per-word threshold
	wordBound float64 // boost * bound, per-word hard cap
	size      int
	spent     float64
	seen      int
}

// NewWindow returns a windowed budget. size is the window length in
// words (a cache block is the natural unit); boost caps any single word's
// error at boost*threshold.
func NewWindow(thresholdPct int, size int, boost float64) (*Window, error) {
	if thresholdPct < 0 || thresholdPct > 100 {
		return nil, fmt.Errorf("quality: threshold %d%% out of range", thresholdPct)
	}
	if size <= 0 {
		return nil, fmt.Errorf("quality: window size %d must be positive", size)
	}
	if boost < 1 {
		return nil, fmt.Errorf("quality: boost %g must be >= 1", boost)
	}
	b := float64(thresholdPct) / 100
	return &Window{bound: b, wordBound: boost * b, size: size}, nil
}

// Allow admits the approximation when the word stays under the boosted
// cap and the window's cumulative budget is not exceeded.
func (w *Window) Allow(relErr float64) bool {
	budget := w.bound * float64(w.size)
	if relErr > w.wordBound || w.spent+relErr > budget {
		return false
	}
	w.spent += relErr
	return true
}

// Advance marks one word processed, rolling the window when full.
func (w *Window) Advance() {
	w.seen++
	if w.seen >= w.size {
		w.Reset()
	}
}

// Reset starts a fresh window.
func (w *Window) Reset() {
	w.spent = 0
	w.seen = 0
}

// Threshold returns the nominal per-word threshold.
func (w *Window) Threshold() float64 { return w.bound }

// Spent returns the budget consumed in the current window (for tests).
func (w *Window) Spent() float64 { return w.spent }

// State exposes the window's running position for serialization: the
// budget spent so far and the words seen in the current window.
func (w *Window) State() (spent float64, seen int) { return w.spent, w.seen }

// Restore overwrites the window's running position — the snapshot
// codec's inverse of State. It rejects positions the window could not
// have reached itself, so hostile snapshot bytes cannot smuggle in an
// out-of-range budget.
func (w *Window) Restore(spent float64, seen int) error {
	if spent < 0 || spent != spent || spent > w.bound*float64(w.size)+1e-9 {
		return fmt.Errorf("quality: restored spend %g outside window budget %g", spent, w.bound*float64(w.size))
	}
	if seen < 0 || seen >= w.size {
		return fmt.Errorf("quality: restored position %d outside window of %d words", seen, w.size)
	}
	w.spent, w.seen = spent, seen
	return nil
}
