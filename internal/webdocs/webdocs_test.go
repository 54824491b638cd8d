package webdocs

import (
	"strings"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/rsconfig"
)

// TestRoundTripAllSchemes pins the scrape: parsing a rendered page
// recovers exactly the scheme's website entry set, and the union with
// the RS-config entries rebuilds the full §3 dictionary.
func TestRoundTripAllSchemes(t *testing.T) {
	for _, scheme := range dictionary.Profiles() {
		page := Render(scheme)
		docs, err := Parse(page)
		if err != nil {
			t.Fatalf("%s: %v", scheme.IXP, err)
		}
		want := scheme.WebsiteEntries()
		if len(docs) != len(want) {
			t.Fatalf("%s: scraped %d rows, want %d", scheme.IXP, len(docs), len(want))
		}
		for i, d := range docs {
			w := want[i]
			if d.Community != w.Community || d.Action != w.Action || d.Description != w.Description {
				t.Errorf("%s row %d: got %+v want %+v", scheme.IXP, i, d, w)
			}
		}
		entries := Entries(scheme, docs)
		union := dictionary.UnionEntries(scheme.RSConfigEntries(), entries)
		if len(union) != len(scheme.Entries()) {
			t.Errorf("%s: union = %d entries, want %d", scheme.IXP, len(union), len(scheme.Entries()))
		}
	}
}

// TestFullSec3Construction runs the complete §3 dictionary pipeline
// from both textual artifacts, with no access to the scheme's own
// entry enumeration.
func TestFullSec3Construction(t *testing.T) {
	scheme := dictionary.ProfileByName("IX.br-SP")

	configDefs, err := rsconfig.Parse(rsconfig.Render(scheme))
	if err != nil {
		t.Fatal(err)
	}
	docs, err := Parse(Render(scheme))
	if err != nil {
		t.Fatal(err)
	}
	union := dictionary.UnionEntries(
		rsconfig.Entries(scheme.IXP, configDefs),
		Entries(scheme, docs),
	)
	dict := dictionary.FromEntries(scheme.IXP, union)
	if dict.Size() != 649 {
		t.Errorf("IX.br-SP dictionary = %d entries, want 649", dict.Size())
	}
	// Spot check: the blanket block-all community must be present and
	// correctly classified.
	e, ok := dict.Lookup(scheme.DoNotAnnounceAll())
	if !ok || e.Action != dictionary.DoNotAnnounceTo {
		t.Errorf("block-all lookup = %+v ok=%v", e, ok)
	}
}

func TestParseMessyMarkup(t *testing.T) {
	page := `
<html><body><table>
 <TR><TH>c</TH><TH>t</TH><TH>d</TH></TR>
 <tr class="odd">
   <td><code>0:15169</code></td>
   <td> do-not-announce-to </td>
   <td>Do not announce to <b>Google</b> &amp; friends</td>
 </tr>
</table></body></html>`
	docs, err := Parse(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("docs = %v", docs)
	}
	d := docs[0]
	if d.Community != bgp.MustParseCommunity("0:15169") {
		t.Errorf("community = %v", d.Community)
	}
	if d.Action != dictionary.DoNotAnnounceTo {
		t.Errorf("action = %v", d.Action)
	}
	if d.Description != "Do not announce to Google & friends" {
		t.Errorf("description = %q", d.Description)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no rows":       `<html><body>nothing here</body></html>`,
		"bad community": `<tr><td>banana</td><td>do-not-announce-to</td><td>x</td></tr>`,
		"bad type":      `<tr><td>0:1</td><td>teleport</td><td>x</td></tr>`,
	}
	for name, page := range cases {
		if _, err := Parse(page); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestRenderEscapesHTML(t *testing.T) {
	scheme := dictionary.ProfileByName("LINX")
	page := Render(scheme)
	if strings.Contains(page, "<script") {
		t.Error("unexpected script tag")
	}
	if !strings.Contains(page, "LINX action &amp; informational") {
		t.Error("title not escaped/rendered")
	}
}
