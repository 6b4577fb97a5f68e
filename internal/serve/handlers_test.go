package serve

import (
	"math"
	"net/url"
	"slices"
	"strconv"
	"testing"
)

// queryKeys are the parameters parse reads in every build.
var queryKeys = []string{"model", "config", "gpu", "objective", "pricing", "samples",
	"batch", "k", "maxk", "max_hourly_usd", "max_total_usd"}

// FuzzParseQuery checks the daemon's query parser against net/url. On
// any input parse never panics. On a query url.ParseQuery accepts,
// parse rejects any key outside its set. When parse accepts, so does
// url.ParseQuery, and every field equals Values.Get of its key (floats
// compared by bits), or the server default when the key is absent.
func FuzzParseQuery(f *testing.F) {
	s := &Server{batch: 32, maxK: 4}
	// Only chaosserve builds read the chaos key.
	chaos := chaosQueryParam(new(query), "chaos", "panic")
	f.Fuzz(func(t *testing.T, raw string) {
		var q query
		msg := q.reset(s).parse(raw, s.maxK)
		if msg != "" {
			return
		}
		vals, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatalf("parse accepted %q, which url.ParseQuery rejects: %v", raw, err)
		}
		for key := range vals {
			if !slices.Contains(queryKeys, key) && !(chaos && key == "chaos") {
				t.Fatalf("parse accepted %q with key %q outside its set", raw, key)
			}
		}

		must := func(err error) {
			if err != nil {
				t.Fatalf("parse accepted %q, whose first value does not convert: %v", raw, err)
			}
		}
		want := new(query).reset(s)
		for key, field := range map[string]*string{"model": &want.model, "config": &want.config,
			"gpu": &want.gpu, "objective": &want.objective, "pricing": &want.pricing} {
			if vals.Has(key) {
				*field = vals.Get(key)
			}
		}
		want.market = want.pricing == "market"
		for key, field := range map[string]*int64{"samples": &want.samples, "batch": &want.batch} {
			if vals.Has(key) {
				*field, err = strconv.ParseInt(vals.Get(key), 10, 64)
				must(err)
			}
		}
		for key, field := range map[string]*int{"k": &want.k, "maxk": &want.maxk} {
			if vals.Has(key) {
				*field, err = strconv.Atoi(vals.Get(key))
				must(err)
			}
		}
		want.hasHourly, want.hasTotal = vals.Has("max_hourly_usd"), vals.Has("max_total_usd")
		if want.hasHourly {
			want.hourlyBudget, err = strconv.ParseFloat(vals.Get("max_hourly_usd"), 64)
			must(err)
		}
		if want.hasTotal {
			want.totalBudget, err = strconv.ParseFloat(vals.Get("max_total_usd"), 64)
			must(err)
		}
		want.chaosPanic = chaos && vals.Has("chaos")

		got := q
		if math.Float64bits(got.hourlyBudget) != math.Float64bits(want.hourlyBudget) ||
			math.Float64bits(got.totalBudget) != math.Float64bits(want.totalBudget) {
			t.Fatalf("parse(%q) budgets %v/%v, url.Values %v/%v", raw,
				got.hourlyBudget, got.totalBudget, want.hourlyBudget, want.totalBudget)
		}
		got.hourlyBudget, got.totalBudget = 0, 0
		want.hourlyBudget, want.totalBudget = 0, 0
		if got != *want {
			t.Fatalf("parse(%q) = %+v, url.Values gives %+v", raw, got, *want)
		}
	})
}
