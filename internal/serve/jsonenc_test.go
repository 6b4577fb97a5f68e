package serve

import (
	"encoding/json"
	"math"
	"testing"
)

// checkJSONFloat compares appendJSONFloat with encoding/json. Non-finite
// values, which encoding/json rejects, must encode as null.
func checkJSONFloat(t *testing.T, f float64) {
	t.Helper()
	want := "null"
	if !math.IsInf(f, 0) && !math.IsNaN(f) {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", f, err)
		}
		want = string(b)
	}
	if got := appendJSONFloat([]byte("x"), f); string(got) != "x"+want {
		t.Errorf("appendJSONFloat(%v [bits %#x]) = %s, encoding/json %s", f, math.Float64bits(f), got[1:], want)
	}
}

// checkJSONString compares appendJSONString with encoding/json.
func checkJSONString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("json.Marshal(%q): %v", s, err)
	}
	if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
		t.Errorf("appendJSONString(%q) = %s, encoding/json %s", s, got[1:], want)
	}
}

// jsonFloatCases are the boundaries of encoding/json's float format:
// signed zero, subnormals, both sides of the 1e-6 and 1e21 switches
// between 'f' and 'e' form, trimmed exponents and the extremes.
var jsonFloatCases = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 - math.SmallestNonzeroFloat64, // largest subnormal
	0x1p-1022,                               // smallest normal
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, -math.Nextafter(1e-6, 0),
	1e-7, 1.5e-9, 1e-10, 1e-100,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, -math.Nextafter(1e21, 0),
	1e20, 1e22, 1e100,
	math.MaxFloat64, -math.MaxFloat64,
	0.1, 1, 3.06, 123456789, 0.000123, 85.57789784786115, 1 << 53, 1<<53 + 2,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// jsonStringCases cover every escaping rule of encoding/json: the HTML
// characters, control bytes (with the short \b \f \n \r \t forms),
// quote and backslash, DEL, invalid and truncated UTF-8, the line
// separators U+2028/U+2029 and their neighbours, and multi-byte runes
// passed through.
var jsonStringCases = []string{
	"", "2xP3", "p3.8xlarge (2 of 4 GPUs)",
	"<script>alert(1)</script>", "a&b", ">",
	"\x00", "\x01\x1f", "\b\f\n\r\t", "tab\there", "\x7f",
	`quote " and backslash \`,
	"\xff", "a\xc3(", "\xe2\x82", "\xed\xa0\x80", "ok\xffok\xfe",
	"\u2028", "\u2029", "line\u2028sep\u2029", "\u2027\u202a",
	"\u00e9", "\u65e5\u672c\u8a9e", "\U0001F600", "\ufffd",
}

// TestJSONEncoderEquivalence pins the append encoder's floats and
// strings to encoding/json value by value, at every formatting
// boundary.
func TestJSONEncoderEquivalence(t *testing.T) {
	for _, f := range jsonFloatCases {
		checkJSONFloat(t, f)
	}
	for _, s := range jsonStringCases {
		checkJSONString(t, s)
	}
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range jsonFloatCases {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkJSONFloat(t, math.Float64frombits(bits))
	})
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range jsonStringCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkJSONString(t, s)
	})
}
