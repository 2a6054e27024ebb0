package serve

import (
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/value"
)

// The query endpoints write their bodies with the append functions in
// this file instead of building map[string]any values for
// encoding/json. The bytes are the ones json.Encoder (HTML escaping on)
// would produce for those maps: object fields in sorted name order,
// result objects keyed by vertex in byte order, and a trailing newline.
// Results come out in vertex-id order because keys.Set holds its keys in
// the same byte order encoding/json sorts map keys by, so nothing is
// sorted at write time. JSON has no ±Inf or NaN; those values are
// written as value.FormatFloat strings ("+Inf", "-Inf", "NaN"), since
// the tropical algebras store them as ordinary values (an unweighted
// max.min edge has width +Inf).

// respond appends a body with fill into a pooled buffer and writes it as
// the response in one shot.
func (s *Server) respond(w http.ResponseWriter, fill func(b []byte) []byte) {
	bp := s.buffers.Get().(*[]byte)
	b := append(fill((*bp)[:0]), '\n')
	s.send(w, b)
	*bp = b
	s.buffers.Put(bp)
}

// send writes a complete JSON body with an explicit Content-Length in a
// single Write. A failed write is the client's disconnect; it is
// counted, not retried.
func (s *Server) send(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		s.met.writeErrors.Inc()
	}
}

// htmlSafe marks the ASCII bytes encoding/json copies into a string
// unescaped when HTML escaping is on: everything printable except '"',
// '\\', '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json
// escapes it: the short escapes for '"', '\\', \b, \f, \n, \r and \t,
// \u00XX for other control bytes and for '<', '>' and '&', \ufffd for
// each invalid UTF-8 byte, and \u2028/\u2029 for the JavaScript line
// separators.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
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
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends v as encoding/json formats a float64 (shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 on, no
// zero-padded negative exponent), or ±Inf and NaN as FormatFloat
// strings.
func appendFloat(b []byte, v float64) []byte {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return appendString(b, value.FormatFloat(v))
	}
	abs := math.Abs(v)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, v, 'e', -1, 64)
	// e-09 → e-9
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendEpochs appends the consistency token every query response
// carries, as two fields: the pinned epoch vector and its scalar sum (a
// single scalar for clients that only order responses; the vector is
// the token queries were answered at — every field of one response
// reflects shard i at exactly epochs[i]).
func appendEpochs(b []byte, epochs []int) []byte {
	sum := 0
	for _, e := range epochs {
		sum += e
	}
	b = append(b, `"epoch":`...)
	b = strconv.AppendInt(b, int64(sum), 10)
	b = append(b, `,"epochs":[`...)
	for i, e := range epochs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return append(b, ']')
}

// appendKey appends the i-th member's name of an object keyed by
// vertex: a separating comma after the first member, then "key":.
func appendKey(b []byte, i int, key string) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	return append(appendString(b, key), ':')
}

// appendAtTail appends the fields a point read shares between /at and a
// batch "at" op, from "src" on, and closes the object.
func appendAtTail(b []byte, src string, val float64, stored bool) []byte {
	b = append(b, `"src":`...)
	b = appendString(b, src)
	b = append(b, `,"stored":`...)
	b = strconv.AppendBool(b, stored)
	b = append(b, `,"value":`...)
	return append(appendFloat(b, val), '}')
}

// appendRowTail appends the fields a row read shares between /row and a
// batch "row" op, from "row" on, and closes the object. The row streams
// straight from the CSR: its column ids ascend, so its column keys come
// out in sorted order. An absent source is an empty row.
func appendRowTail(b []byte, adj *assoc.Array[float64], src string) []byte {
	b = append(b, `"row":{`...)
	if i, ok := adj.RowKeys().Index(src); ok {
		cols, vals := adj.Matrix().Row(i)
		ck := adj.ColKeys()
		for p, j := range cols {
			b = appendFloat(appendKey(b, p, ck.Key(j)), vals[p])
		}
	}
	b = append(b, `},"src":`...)
	return append(appendString(b, src), '}')
}

// appendLevels appends BFS levels as an object keyed by vertex;
// unreached vertices (level -1) are absent.
func appendLevels(b []byte, verts *keys.Set, level []int) []byte {
	b = append(b, '{')
	n := 0
	for i, l := range level {
		if l >= 0 {
			b = strconv.AppendInt(appendKey(b, n, verts.Key(i)), int64(l), 10)
			n++
		}
	}
	return append(b, '}')
}

// appendVector appends a dense result vector as an object keyed by
// vertex, holding the entries present in has (every entry when has is
// nil).
func appendVector(b []byte, verts *keys.Set, val []float64, has []bool) []byte {
	b = append(b, '{')
	n := 0
	for i, v := range val {
		if has == nil || has[i] {
			b = appendFloat(appendKey(b, n, verts.Key(i)), v)
			n++
		}
	}
	return append(b, '}')
}
