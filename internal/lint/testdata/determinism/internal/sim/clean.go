package sim

import (
	"math/rand"
	"sort"

	"example.com/determinism/internal/textutil"
)

// CleanCollect sorts after collecting, laundering map order out: the
// repo's canonical collect-keys-then-sort idiom.
func CleanCollect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CleanRand draws from an explicitly seeded stream; only the global
// source is banned.
func CleanRand(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// CleanNotes collects and sorts the keys first, so the footnotes render
// in name order on every run.
func CleanNotes(t *textutil.Table, ratios map[string]float64) {
	names := make([]string, 0, len(ratios))
	for name := range ratios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.AddNote("%s costs %.1fx", name, ratios[name])
	}
}
