package rsconfig

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/webdocs"
)

// renderGolden is the sha256 of Render's text per scheme. The config is
// the artifact the crawl parses its dictionary from, and a renderer that
// ranged over a map would emit the same state in a different order on
// every run; this pins the bytes. A deliberate change to the rendered
// text updates the digests here.
var renderGolden = map[string]string{
	"IX.br-SP":   "64b0a2bc707fd7aae5501fcff3194009aae6ee2868138022047ffa912764f4b0",
	"DE-CIX":     "74c3f5928074d02790546cf372a1b3e1432f14e4433c255afcc56b4c1112b914",
	"LINX":       "ca97d878a81418a8d0f851acd8379db93b68fdb184522f4cdf93db5d5db50aab",
	"AMS-IX":     "5fc78cd1b71164d5fca71d55e01c32455897daffb07b51cee1738dffa16ba26d",
	"DE-CIX Mad": "4136872ce421372df11a4247e262010e017acb1d5162b7c508885dc137f3bf30",
	"DE-CIX NYC": "8a060fdf308b9ae92e4c69c54454141e22eb6cea098348e80fb6c5ca8f0c756c",
	"BCIX":       "a499928882ab46df0a19811efa71bfbfa34665b0eb6bf34001166522507d5031",
	"Netnod":     "3442294068896f0c24b419da7490924c26bf7ad88d3121635a5264626a3cb4a3",
}

func TestRenderGolden(t *testing.T) {
	profiles := dictionary.Profiles()
	if len(profiles) != len(renderGolden) {
		t.Fatalf("%d profiles, %d goldens", len(profiles), len(renderGolden))
	}
	for _, scheme := range profiles {
		sum := sha256.Sum256([]byte(Render(scheme)))
		if got := hex.EncodeToString(sum[:]); got != renderGolden[scheme.IXP] {
			t.Errorf("%s: rendered config sha256 %s, want %s", scheme.IXP, got, renderGolden[scheme.IXP])
		}
	}
}

func TestRenderShape(t *testing.T) {
	scheme := dictionary.ProfileByName("DE-CIX")
	text := Render(scheme)
	for _, want := range []string{
		"router id 192.0.2.1;",
		"define rs_asn = 6695;",
		"filter ixp_import",
		"bgp_path.len > 64",
		"(65535, 666)", // blackhole bypass
		"define comm_0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered config misses %q", want)
		}
	}
	// LINX has no blackholing: the bypass stanza must be absent.
	linx := Render(dictionary.ProfileByName("LINX"))
	if strings.Contains(linx, "(65535, 666)") {
		t.Error("LINX config must not mention the blackhole bypass")
	}
}

// TestRoundTripAllSchemes pins the §3 extraction: parsing a rendered
// config recovers exactly the scheme's RS-config entry set.
func TestRoundTripAllSchemes(t *testing.T) {
	for _, scheme := range dictionary.Profiles() {
		text := Render(scheme)
		defs, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", scheme.IXP, err)
		}
		want := scheme.RSConfigEntries()
		if len(defs) != len(want) {
			t.Fatalf("%s: parsed %d defs, want %d", scheme.IXP, len(defs), len(want))
		}
		for i, d := range defs {
			w := want[i]
			if d.Community != w.Community || d.Action != w.Action ||
				d.Target != w.Target || d.TargetASN != w.TargetASN ||
				d.Description != w.Description {
				t.Errorf("%s def %d: got %+v want %+v", scheme.IXP, i, d, w)
			}
		}
		// The converted entries union with the website docs back to the
		// full dictionary (the §3 construction).
		union := dictionary.UnionEntries(Entries(scheme.IXP, defs), scheme.WebsiteEntries())
		if len(union) != len(scheme.Entries()) {
			t.Errorf("%s: union = %d entries, want %d", scheme.IXP, len(union), len(scheme.Entries()))
		}
	}
}

func TestParseSkipsNonDefineLines(t *testing.T) {
	text := "# comment\nrouter id 10.0.0.1;\n\ndefine rs_asn = 1;\n"
	defs, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 0 {
		t.Errorf("defs = %v", defs)
	}
}

func TestParseRejectsMalformedDefines(t *testing.T) {
	cases := []string{
		"define comm_0 (0, 1); # x | all | y",                     // no '='
		"define comm_0 = (0, 1);",                                 // no comment
		"define comm_0 = 0:1; # do-not-announce-to | all | y",     // bad tuple
		"define comm_0 = (0, 1); # do-not-announce-to | all",      // 2 fields
		"define comm_0 = (0, 1); # explode | all | y",             // unknown action
		"define comm_0 = (0, 1); # do-not-announce-to | ASx | y",  // bad target
		"define comm_0 = (0, 1); # do-not-announce-to | here | y", // bad target kind
		"define comm_0 = (0, 99999); # do-not-announce-to | all | y",
	}
	for _, line := range cases {
		if _, err := Parse(line + "\n"); err == nil {
			t.Errorf("accepted malformed line %q", line)
		}
	}
}

func TestParseTolerantOfWhitespace(t *testing.T) {
	line := "   define comm_7 =   ( 0 , 15169 ) ;   #  do-not-announce-to  |  AS15169  |  do not announce to AS15169  \n"
	defs, err := Parse(line)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 1 {
		t.Fatalf("defs = %v", defs)
	}
	d := defs[0]
	if d.Community != bgp.NewCommunity(0, 15169) || d.TargetASN != 15169 ||
		d.Action != dictionary.DoNotAnnounceTo {
		t.Errorf("def = %+v", d)
	}
	if d.Description != "do not announce to AS15169" {
		t.Errorf("description = %q", d.Description)
	}
}

// BenchmarkDictionaryFromArtifacts measures the full §3 dictionary
// construction from the two textual artifacts, run by hand:
//
//	go test -run '^$' -bench DictionaryFromArtifacts -benchmem ./internal/rsconfig
func BenchmarkDictionaryFromArtifacts(b *testing.B) {
	scheme := dictionary.ProfileByName("DE-CIX")
	cfgText := Render(scheme)
	page := webdocs.Render(scheme)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		defs, err := Parse(cfgText)
		if err != nil {
			b.Fatal(err)
		}
		docs, err := webdocs.Parse(page)
		if err != nil {
			b.Fatal(err)
		}
		union := dictionary.UnionEntries(Entries(scheme.IXP, defs), webdocs.Entries(scheme, docs))
		size = dictionary.FromEntries(scheme.IXP, union).Size()
	}
	b.ReportMetric(float64(size), "entries")
}
