// Package rsconfig renders and parses BIRD-style route-server
// configuration files. The paper's §3 dictionary construction starts
// from exactly this artifact: "using the LG API, we fetch the RS
// configuration file containing the semantics of informational and
// action BGP communities available". Render produces a plausible
// config for one IXP scheme (import policy plus annotated community
// definitions); Parse recovers the community semantics from such a
// text, which is how the collection side builds its dictionary without
// any out-of-band knowledge.
package rsconfig

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
)

// Render emits the configuration text for one scheme. The community
// section annotates every definition with a machine-parsable comment:
//
//	define comm_12 = (0, 15169); # do-not-announce-to | AS15169 | do not announce to AS15169
func Render(scheme *dictionary.Scheme) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# ixplight route server configuration — %s\n", scheme.IXP)
	b.WriteString("router id 192.0.2.1;\n")
	fmt.Fprintf(&b, "define rs_asn = %d;\n\n", scheme.RSASN)

	b.WriteString("# import policy (§3: filtered vs accepted)\n")
	b.WriteString("filter ixp_import {\n")
	b.WriteString("  if is_bogon_prefix(net) then reject; # bogon prefix\n")
	b.WriteString("  if bgp_path ~ [= * bogon_asn * =] then reject; # bogon ASN\n")
	b.WriteString("  if bgp_path.len > 64 then reject; # AS path too long\n")
	b.WriteString("  if net.type = NET_IP4 && (net.len > 24 || net.len < 8) then reject; # prefix bounds\n")
	b.WriteString("  if net.type = NET_IP6 && (net.len > 48 || net.len < 16) then reject; # prefix bounds\n")
	if scheme.SupportsBlackhole {
		b.WriteString("  if (65535, 666) ~ bgp_community then accept; # blackhole host routes bypass bounds\n")
	}
	b.WriteString("  accept;\n")
	b.WriteString("}\n\n")

	b.WriteString("# community semantics\n")
	for i, e := range scheme.RSConfigEntries() {
		fmt.Fprintf(&b, "define comm_%d = (%d, %d); # %s | %s | %s\n",
			i, e.Community.ASN(), e.Community.Value(),
			e.Action, targetField(e), e.Description)
	}
	return b.String()
}

func targetField(e dictionary.Entry) string {
	switch e.Target {
	case dictionary.TargetAll:
		return "all"
	case dictionary.TargetPeer:
		return fmt.Sprintf("AS%d", e.TargetASN)
	default:
		return "-"
	}
}

// Def is one community definition recovered from a config text.
type Def struct {
	Community   bgp.Community
	Action      dictionary.ActionType
	Target      dictionary.TargetKind
	TargetASN   uint32
	Description string
}

// Parse extracts the community definitions from a rendered
// configuration. Lines that are not community defines are skipped;
// malformed define lines are an error (a corrupted config must not
// silently shrink the dictionary).
func Parse(text string) ([]Def, error) {
	var out []Def
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "define comm_") {
			continue
		}
		def, err := parseDefine(line)
		if err != nil {
			return nil, fmt.Errorf("rsconfig: line %d: %w", lineNo, err)
		}
		out = append(out, def)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseDefine(line string) (Def, error) {
	// define comm_N = (a, b); # action | target | description
	_, rest, ok := strings.Cut(line, "=")
	if !ok {
		return Def{}, fmt.Errorf("no '=' in %q", line)
	}
	valuePart, comment, ok := strings.Cut(rest, "#")
	if !ok {
		return Def{}, fmt.Errorf("missing annotation comment in %q", line)
	}
	valuePart = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(valuePart), ";"))
	if !strings.HasPrefix(valuePart, "(") || !strings.HasSuffix(valuePart, ")") {
		return Def{}, fmt.Errorf("bad community tuple %q", valuePart)
	}
	halves := strings.Split(valuePart[1:len(valuePart)-1], ",")
	if len(halves) != 2 {
		return Def{}, fmt.Errorf("bad community tuple %q", valuePart)
	}
	a, errA := strconv.ParseUint(strings.TrimSpace(halves[0]), 10, 16)
	b, errB := strconv.ParseUint(strings.TrimSpace(halves[1]), 10, 16)
	if errA != nil || errB != nil {
		return Def{}, fmt.Errorf("bad community tuple %q", valuePart)
	}

	fields := strings.SplitN(comment, "|", 3)
	if len(fields) != 3 {
		return Def{}, fmt.Errorf("annotation needs 3 fields in %q", comment)
	}
	action, err := parseAction(strings.TrimSpace(fields[0]))
	if err != nil {
		return Def{}, err
	}
	def := Def{
		Community:   bgp.NewCommunity(uint16(a), uint16(b)),
		Action:      action,
		Description: strings.TrimSpace(fields[2]),
	}
	switch target := strings.TrimSpace(fields[1]); {
	case target == "all":
		def.Target = dictionary.TargetAll
	case target == "-":
		def.Target = dictionary.TargetNone
	case strings.HasPrefix(target, "AS"):
		var asn uint32
		if _, err := fmt.Sscanf(target, "AS%d", &asn); err != nil {
			return Def{}, fmt.Errorf("bad target %q: %v", target, err)
		}
		def.Target = dictionary.TargetPeer
		def.TargetASN = asn
	default:
		return Def{}, fmt.Errorf("bad target %q", target)
	}
	return def, nil
}

func parseAction(s string) (dictionary.ActionType, error) {
	for _, a := range []dictionary.ActionType{
		dictionary.Informational, dictionary.DoNotAnnounceTo,
		dictionary.AnnounceOnlyTo, dictionary.PrependTo, dictionary.Blackhole,
	} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown action %q", s)
}

// Entries converts parsed definitions into dictionary entries for one
// IXP — the §3 "RS config" half of the dictionary union.
func Entries(ixp string, defs []Def) []dictionary.Entry {
	out := make([]dictionary.Entry, 0, len(defs))
	for _, d := range defs {
		out = append(out, dictionary.Entry{
			Community:   d.Community,
			IXP:         ixp,
			Action:      d.Action,
			Target:      d.Target,
			TargetASN:   d.TargetASN,
			Description: d.Description,
		})
	}
	return out
}
