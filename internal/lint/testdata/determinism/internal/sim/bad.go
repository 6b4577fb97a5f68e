// Package sim exercises the determinism analyzer: nothing on the
// result path may depend on the clock, the environment, the global
// rand source, or map iteration order.
package sim

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"example.com/determinism/internal/textutil"
)

// BadClock stamps results with the wall clock.
func BadClock() int64 {
	return time.Now().Unix() // want `time\.Now reads the wall clock`
}

// BadRand draws from the process-global source.
func BadRand() float64 {
	return rand.Float64() // want `rand\.Float64 draws from the global rand source`
}

// BadEnv lets the process environment leak into results.
func BadEnv() string {
	return os.Getenv("CEER_MODE") // want `os\.Getenv reads the process environment`
}

// BadCollect feeds an output slice straight from map order.
func BadCollect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside map iteration without a later sort`
	}
	return keys
}

// BadEmit prints lines in map order.
func BadEmit(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `emits output inside map iteration`
	}
}

// BadNotes adds report footnotes in map order: a table renders its
// rows and notes in the order they were added.
func BadNotes(t *textutil.Table, ratios map[string]float64) {
	for name, r := range ratios {
		t.AddNote("%s costs %.1fx", name, r) // want `emits output inside map iteration`
	}
}

// BadRows adds report rows in map order.
func BadRows(t *textutil.Table, m map[string]string) {
	for k, v := range m {
		t.AddRow(k, v) // want `emits output inside map iteration`
	}
}
