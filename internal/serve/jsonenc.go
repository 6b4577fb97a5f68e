package serve

// Append-based JSON encoding for the daemon's hot responses. The hot
// path never touches encoding/json: every response is assembled by
// appending into a pooled, capacity-stable scratch buffer, so a warm
// request serializes with zero allocations. The encoding is
// byte-identical to encoding/json over the response structs in
// response.go — pinned value by value by TestJSONEncoderEquivalence and
// the FuzzAppendJSONFloat/FuzzAppendJSONString differential targets,
// and document by document by the endpoint tests. Cold paths
// (/v1/explain, /metrics) and tests keep using encoding/json and the
// two must never drift.

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// appendJSONString appends s as a JSON string literal, matching
// encoding/json's escaping: HTML-escaping included (<, >, & become
// \u003c, \u003e, \u0026), and each invalid UTF-8 byte becomes
// \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		// U+2028/U+2029 are valid JSON but break JS; encoding/json
		// escapes them.
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json emits verbatim inside a
// string (its HTML-escaping safe set).
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0; c < utf8.RuneSelf; c++ {
		t[c] = c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return
}()

// appendJSONFloat appends f exactly as encoding/json encodes a float64:
// shortest representation, 'f' form except for very small/large
// magnitudes, with the exponent's leading zero trimmed. Non-finite
// values (which encoding/json rejects) encode as null; the serving
// model never produces them.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-09" to "e-9", as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONInt appends a decimal integer.
func appendJSONInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

// appendJSONBool appends true or false.
func appendJSONBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// appendKey appends a comma (unless first) plus a `"key":` prefix. Keys
// are compile-time constants, so no escaping is needed.
func appendKey(b []byte, first bool, key string) []byte {
	if !first {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"', ':')
}
