package jsonstr

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzAppendJSONString holds Append to json.Marshal of the same string,
// quoted from a string and from a []byte, appended after a prefix it
// must leave alone.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain ASCII", `quote " and backslash \`, "<script>&amp;</script>",
		"\b\f\n\r\t\x00\x01\x1f\x7f", "São Paulo — Zürich → 東京",
		"line" + string(rune(0x2028)) + "para" + string(rune(0x2029)),
		"bad \xff utf-8 \xc3", "\xe2\x80", "truncated at the end \xf0\x9f\x98",
		"unknown IXP \"AMS-IX\"", "figure4c,DE-CIX,asn,route_fraction\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("x:")
		if got := Append(bytes.Clone(prefix), s); !bytes.Equal(got, append(prefix, want...)) {
			t.Errorf("Append(%q) = %s, json.Marshal %s", s, got[len(prefix):], want)
		}
		if got := Append(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Errorf("Append([]byte %q) = %s, json.Marshal %s", s, got, want)
		}
	})
}
