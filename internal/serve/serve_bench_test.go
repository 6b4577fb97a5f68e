package serve

import "testing"

// BenchmarkServePredict measures the full-sweep /v1/predict hot path —
// route, admission, parse, 17-candidate prediction, append-encoded
// body. Must report 0 allocs/op warm (gated via BENCH_serve.json).
func BenchmarkServePredict(b *testing.B) {
	s := warmServer(b)
	w := newNopWriter()
	req := hotRequest("/v1/predict", "model=resnet-50")
	s.ServeHTTP(w, req) // settle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}

// BenchmarkServeRecommend measures the /v1/recommend hot path:
// RecommendInto over the full candidate set with a budget constraint.
// Must report 0 allocs/op warm.
func BenchmarkServeRecommend(b *testing.B) {
	s := warmServer(b)
	w := newNopWriter()
	req := hotRequest("/v1/recommend", "model=resnet-50&objective=cost&max_hourly_usd=50")
	s.ServeHTTP(w, req) // settle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}

// BenchmarkServeEncodePredict isolates the encoder: render the predict
// document into a warm scratch without the HTTP layer.
func BenchmarkServeEncodePredict(b *testing.B) {
	s := warmServer(b)
	sc := s.arena.get()
	defer s.arena.put(sc)
	sc.q.reset(s)
	sc.q.model = "resnet-50"
	me := s.findModel("resnet-50")
	if me == nil {
		b.Fatal("resnet-50 not in zoo")
	}
	cands := s.candsByK[s.maxK]
	metas := s.metaByK[s.maxK]
	if status, msg := s.renderPredict(sc, me, cands, metas); status != 200 {
		b.Fatalf("render: %d %s", status, msg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status, _ := s.renderPredict(sc, me, cands, metas); status != 200 {
			b.Fatal("render failed")
		}
	}
}
