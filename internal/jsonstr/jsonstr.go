// Package jsonstr appends a string as encoding/json quotes it. The
// hand-rendered JSON documents (the looking glass's routes pages, every
// ixpd /v1 body) quote their strings through it, so the escaping rules
// a golden test holds to encoding/json live in one place.
package jsonstr

import "unicode/utf8"

const hex = "0123456789abcdef"

// safe[c] reports whether ASCII byte c is copied unescaped: printable
// ASCII and DEL, except the quote, the backslash and the HTML-sensitive
// <, > and &, which json.Marshal escapes.
var safe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// Append appends s to b as a quoted JSON string, byte for byte what
// json.Marshal writes for the same string: \b \f \n \r \t and a
// backslash-escaped quote and backslash, \u00XX for every other control
// byte and for <, > and &, \u2028 and \u2029 for the two JavaScript
// line separators, and \ufffd for each byte of invalid UTF-8. A []byte
// is quoted as the string it holds, without a copy.
func Append[S ~string | ~[]byte](b []byte, s S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if safe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		// At most the UTFMax bytes a rune takes, so that the conversion
		// of a []byte's window stays on the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
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
