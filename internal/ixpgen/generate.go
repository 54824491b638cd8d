package ixpgen

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
)

// Options control one generation run.
type Options struct {
	// Seed makes the workload reproducible.
	Seed int64
	// Scale multiplies every magnitude (members, prefixes, routes);
	// 1.0 is paper scale, 0.02–0.05 is comfortable for tests/benches.
	Scale float64
}

// Member is one synthetic RS member.
type Member struct {
	ASN  uint32
	Name string
	// Index numbers the member on the IXP LAN for address derivation.
	Index int
	IPv4  bool
	IPv6  bool
}

// Workload is a fully materialised set of members and their accepted
// routes for one IXP, ready to be fed into a route server or packaged
// as a snapshot.
type Workload struct {
	Profile Profile
	Members []Member
	Routes  []bgp.Route
	// Invalid holds announcements the route server must reject (bogon
	// prefixes, out-of-bounds lengths, looped or oversized paths) —
	// the §3 "filtered" side of the filtered-vs-accepted split. Real
	// members leak such announcements constantly.
	Invalid []bgp.Route
}

// memberState carries the per-member generation decisions.
type memberState struct {
	member     *Member
	routes     int
	isDNA      bool
	isAOT      bool
	isPrepend  bool
	isBH       bool
	avoidList  []bgp.Community // do-not-announce entries
	allowList  []bgp.Community // block-all + announce-only entries
	prependTag []bgp.Community
	// Extension flavours (the paper's future work): extended-community
	// prepending (AMS-IX) and large-community avoid lists able to name
	// 32-bit targets.
	prependExt []bgp.ExtendedCommunity
	largeAvoid []bgp.LargeCommunity
	tagProb    float64
	v6         bool
}

// Generate builds the workload for one profile. Both address families
// are generated; v6 members are a subset of the v4 membership, as at
// real route servers.
func Generate(p Profile, opt Options) (*Workload, error) {
	if p.Scheme == nil {
		return nil, fmt.Errorf("ixpgen: profile %q has no scheme", p.IXP)
	}
	if opt.Scale <= 0 {
		opt.Scale = 1.0
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ int64(p.Scheme.RSASN)<<20))

	w := &Workload{Profile: p}
	w.Members = buildMembers(p, opt.Scale, rng)

	// Both families append into one routes array, sized once.
	fams := [2]FamilyParams{p.V4, p.V6}
	var famMembers [2][]*Member
	size := 0
	for i, fam := range fams {
		famMembers[i] = familyMembers(w.Members, i == 1)
		size += familyRouteCap(fam, p.Scheme, len(famMembers[i]), opt.Scale)
	}
	w.Routes = make([]bgp.Route, 0, size)

	lists := &routeLists{}
	prefixCounter := 0
	for i, fam := range fams {
		if err := generateFamily(w, fam, famMembers[i], i == 1, rng, opt.Scale, &prefixCounter, lists); err != nil {
			return nil, err
		}
	}
	w.Invalid = emitInvalid(w, lists, rng)
	return w, nil
}

// familyMembers returns the members that peer in one address family.
func familyMembers(members []Member, v6 bool) []*Member {
	var out []*Member
	for i := range members {
		m := &members[i]
		if (v6 && m.IPv6) || (!v6 && m.IPv4) {
			out = append(out, m)
		}
	}
	return out
}

// familyRouteCap bounds what emitRoutes appends for one family of n
// members: the members' tables, which assignSizes lands on the scaled
// route total, plus at most three host routes per blackhole user.
func familyRouteCap(fam FamilyParams, scheme *dictionary.Scheme, n int, scale float64) int {
	c := scaleInt(fam.Routes, scale, n)
	if scheme.SupportsBlackhole {
		c += 3 * int(math.Round(fam.BHUserFrac*float64(n)))
	}
	return c
}

// emitInvalid fabricates the announcements the import policy must
// reject: roughly half a percent of the table, spread over the larger
// members, cycling through the §3 rejection reasons.
func emitInvalid(w *Workload, lists *routeLists, rng *rand.Rand) []bgp.Route {
	n := len(w.Routes) / 200
	if n < 2 {
		n = 2
	}
	out := make([]bgp.Route, 0, n)
	for i := 0; i < n; i++ {
		m := w.Members[rng.Intn(min(len(w.Members), 8))]
		if !m.IPv4 {
			continue
		}
		r := lists.scratch()
		r.NextHop = netutil.PeerAddrV4(m.Index)
		r.ASPath = append(r.ASPath, m.ASN)
		r.Origin = bgp.OriginIGP
		switch i % 4 {
		case 0: // bogon prefix
			r.Prefix = netip.MustParsePrefix("10.64.0.0/16")
		case 1: // too specific
			p := netutil.SyntheticV4Prefix(900000 + i)
			r.Prefix = netip.PrefixFrom(p.Addr(), 28)
		case 2: // bogon ASN on the path
			r.Prefix = netutil.SyntheticV4Prefix(910000 + i)
			r.ASPath = append(r.ASPath, 23456, uint32(synthHopBase+i))
		case 3: // AS path loop
			r.Prefix = netutil.SyntheticV4Prefix(920000 + i)
			r.ASPath = append(r.ASPath, uint32(synthHopBase+i), m.ASN)
		}
		out = append(out, lists.carve())
	}
	return out
}

// scaleInt scales a paper-scale magnitude, keeping a sane floor.
func scaleInt(n int, scale float64, floor int) int {
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		v = floor
	}
	return v
}

// buildMembers creates the member list: the paper-named networks
// first, then synthetic members. IPv6 membership is the first
// n6-of-n4 slice after a deterministic shuffle that keeps the
// well-known networks dual-stacked.
func buildMembers(p Profile, scale float64, rng *rand.Rand) []Member {
	n4 := scaleInt(p.V4.MembersAtRS, scale, 16)
	n6 := scaleInt(p.V6.MembersAtRS, scale, 12)
	if n6 > n4 {
		n6 = n4
	}

	head := append([]uint32(nil), wellKnownMembers...)
	if p.IXP == "IX.br-SP" {
		head = append(head, brazilMembers...)
	}
	members := make([]Member, 0, n4)
	for i, asn := range head {
		if len(members) == n4 {
			break
		}
		members = append(members, Member{ASN: asn, Name: memberName(asn), Index: i + 1, IPv4: true})
	}
	for i := len(members); i < n4; i++ {
		asn := uint32(synthMemberBase + i)
		members = append(members, Member{ASN: asn, Name: memberName(asn), Index: i + 1, IPv4: true})
	}

	// IPv6: well-known members always, then a deterministic sample.
	v6Left := n6
	for i := range members {
		if i < len(head) && v6Left > 0 {
			members[i].IPv6 = true
			v6Left--
		}
	}
	perm := rng.Perm(n4)
	for _, i := range perm {
		if v6Left == 0 {
			break
		}
		if !members[i].IPv6 {
			members[i].IPv6 = true
			v6Left--
		}
	}
	return members
}

func memberName(asn uint32) string {
	if asn >= synthMemberBase && asn < synthNonMemberBase {
		return fmt.Sprintf("Member-%d", asn)
	}
	return fmt.Sprintf("AS%d", asn)
}

// generateFamily emits one family's routes into w.Routes.
func generateFamily(w *Workload, fam FamilyParams, famMembers []*Member, v6 bool, rng *rand.Rand, scale float64, prefixCounter *int, lists *routeLists) error {
	p := w.Profile
	n := len(famMembers)
	if n == 0 {
		return fmt.Errorf("ixpgen: %s: no members for family v6=%v", p.IXP, v6)
	}
	totalRoutes := scaleInt(fam.Routes, scale, n)
	totalPrefixes := scaleInt(fam.Prefixes, scale, n)
	if totalPrefixes > totalRoutes {
		totalPrefixes = totalRoutes
	}

	states := assignSizes(famMembers, totalRoutes, v6, rng)
	assignRoles(states, fam, rng)
	buildLists(states, fam, p, rng)

	w.Routes = emitRoutes(w.Routes, lists, states, fam, p, v6, rng, totalRoutes, totalPrefixes, prefixCounter)
	return nil
}

// assignSizes distributes totalRoutes over members with a Zipf-like
// rank-size law. Hurricane Electric is pinned near the top: the
// paper's Fig. 7 culprit must be one of the largest announcers.
func assignSizes(members []*Member, totalRoutes int, v6 bool, rng *rand.Rand) []*memberState {
	n := len(members)
	perm := rng.Perm(n)
	// Pin HE to the top rank: the paper's Fig. 7 culprit is one of the
	// largest announcers at every IXP.
	for i, mi := range perm {
		if members[mi].ASN == wellKnownMembers[0] {
			perm[i], perm[0] = perm[0], perm[i]
			break
		}
	}
	// Exponent 1.2: steep enough that the paper's extreme cases hold
	// (28.5% of LINX v6 members originate 87.5% of the tagged routes).
	weights := make([]float64, n)
	sum := 0.0
	for rank := 0; rank < n; rank++ {
		weights[rank] = 1.0 / math.Pow(float64(rank+1), 1.2)
		sum += weights[rank]
	}
	states := make([]*memberState, n)
	assigned := 0
	for rank, mi := range perm {
		r := int(math.Round(float64(totalRoutes) * weights[rank] / sum))
		if r < 1 {
			r = 1
		}
		states[rank] = &memberState{member: members[mi], routes: r, v6: v6}
		assigned += r
	}
	// Trim or pad the largest member so the total lands on target.
	states[0].routes += totalRoutes - assigned
	if states[0].routes < 1 {
		states[0].routes = 1
	}
	return states
}

// assignRoles picks which members use which action types. Action users
// skew large (the paper's Fig. 4b concentration requires it): two
// thirds of the action users come from the biggest announcers, the
// rest are sampled from the tail. tagProb is then derived so that the
// tagged-route share matches Fig. 4a.
func assignRoles(states []*memberState, fam FamilyParams, rng *rand.Rand) {
	n := len(states)
	nAction := int(math.Round(fam.ActionUserFrac * float64(n)))
	if nAction < 1 {
		nAction = 1
	}
	if nAction > n {
		nAction = n
	}
	totalRoutes := 0
	for _, s := range states {
		totalRoutes += s.routes
	}
	// states is rank-ordered (largest first). Take members from the top
	// until the action users' routes can cover the tagged-route share
	// (with ~8% headroom so tagProb stays below 1), then spread the
	// remaining user slots over the tail.
	needRoutes := fam.TaggedRouteFrac * float64(totalRoutes) * 1.08
	var actionIdx, skipped []int
	actionRoutes := 0
	topCount := 0
	for i := 0; i < n && len(actionIdx) < nAction && float64(actionRoutes) < needRoutes; i++ {
		// ~15% of the big announcers stay out: the paper's Fig. 4c
		// shows large ASes that do not use many communities. Hurricane
		// Electric (rank 0) is always in.
		if i > 0 && rng.Float64() < 0.15 {
			skipped = append(skipped, i)
			continue
		}
		actionIdx = append(actionIdx, i)
		actionRoutes += states[i].routes
		topCount = i + 1
	}
	restPerm := rng.Perm(n - topCount)
	for _, j := range restPerm {
		if len(actionIdx) == nAction {
			break
		}
		actionIdx = append(actionIdx, topCount+j)
		actionRoutes += states[topCount+j].routes
	}
	// Safety: if the tail could not fill the quota, pull the skipped
	// big members back in (deterministic order).
	for _, i := range skipped {
		if len(actionIdx) == nAction {
			break
		}
		actionIdx = append(actionIdx, i)
		actionRoutes += states[i].routes
	}
	// Per-type membership within the action users, sized to Table 2.
	pick := func(frac float64, mark func(*memberState)) {
		want := int(math.Round(frac * float64(n)))
		perm := rng.Perm(len(actionIdx))
		for _, j := range perm {
			if want == 0 {
				break
			}
			mark(states[actionIdx[j]])
			want--
		}
	}
	pick(fam.DNAUserFrac, func(s *memberState) { s.isDNA = true })
	pick(fam.AOTUserFrac, func(s *memberState) { s.isAOT = true })
	pick(fam.PrependUserFrac, func(s *memberState) { s.isPrepend = true })
	pick(fam.BHUserFrac, func(s *memberState) { s.isBH = true })
	if fam.DNAUserFrac > 0 {
		// Hurricane Electric (rank 0, always an action user) is the
		// paper's blanket avoid-list tagger; it must be a DNA user for
		// the Fig. 7 culprit ranking to hold.
		states[0].isDNA = true
	}
	taggerRoutes := 0
	for _, i := range actionIdx {
		s := states[i]
		if !s.isDNA && !s.isAOT && !s.isPrepend && !s.isBH {
			// Every action user must do something; DNA is the
			// overwhelmingly common default.
			s.isDNA = true
		}
		// Blackhole-only users announce host routes but do not tag
		// their table, so they don't contribute to the tagged-route
		// share — derive tagProb over the actual taggers.
		if s.isDNA || s.isAOT || s.isPrepend {
			taggerRoutes += s.routes
		}
	}
	tagProb := 1.0
	if taggerRoutes > 0 {
		tagProb = fam.TaggedRouteFrac * float64(totalRoutes) / float64(taggerRoutes)
	}
	if tagProb > 1 {
		tagProb = 1
	}
	for _, i := range actionIdx {
		states[i].tagProb = tagProb
	}
}

// buildLists materialises each member's avoid/allow/prepend lists,
// sized so the per-type occurrence totals match §5.3 and the target
// mix matches §5.5.
func buildLists(states []*memberState, fam FamilyParams, p Profile, rng *rand.Rand) {
	memberPool, nonMemberPool := buildPools(p, states)
	scheme := p.Scheme

	totalRoutes := 0
	var dnaTagged, aotTagged float64
	for _, s := range states {
		totalRoutes += s.routes
		if s.isDNA {
			dnaTagged += float64(s.routes) * s.tagProb
		}
		if s.isAOT {
			aotTagged += float64(s.routes) * s.tagProb
		}
	}
	actionTotal := fam.ActionPerRoute * float64(totalRoutes)
	dnaTarget := fam.DNAOccShare * actionTotal
	aotTarget := fam.AOTOccShare * actionTotal
	// Every AOT-tagged route carries one block-all community, which
	// counts as a do-not-announce occurrence; budget for it.
	dnaTarget -= aotTagged
	if dnaTarget < 0 {
		dnaTarget = 0
	}

	// List lengths: draw a heavy multiplier per member, then normalise
	// in a second pass so the expected instance totals land exactly on
	// the §5.3 budget. Hurricane Electric gets an outsized multiplier —
	// its blanket avoid-list drives Fig. 7.
	maxList := poolCap(memberPool, nonMemberPool)
	dnaLens := normalizedLengths(states, rng, dnaTarget, maxList,
		func(s *memberState) bool { return s.isDNA },
		func(s *memberState) float64 {
			if s.member.ASN == wellKnownMembers[0] {
				return 1.5
			}
			return 1
		})
	aotLens := normalizedLengths(states, rng, aotTarget, maxList,
		func(s *memberState) bool { return s.isAOT },
		func(*memberState) float64 { return 1 })

	// Non-member bias. §5.5's share is over ALL action instances, but
	// allow-list entries are member-heavy (0.1 non-member) and
	// prepend/blackhole target members or nothing, so the avoid lists
	// must over-shoot: solve for the DNA-entry bias that makes the
	// aggregate land on the target.
	dnaNMTarget := fam.NonMemberTargetShare
	if dnaTarget > 0 {
		dnaNMTarget = clamp((fam.NonMemberTargetShare*actionTotal-0.1*aotTarget)/dnaTarget, 0.05, 0.95)
	}
	// Hurricane Electric blankets non-members (§5.5, Fig. 7); everyone
	// else gets the bias that balances HE's (large) weight.
	heBias := math.Max(0.75, dnaNMTarget)
	var heWeight, totalWeight float64
	for i, s := range states {
		if !s.isDNA {
			continue
		}
		w := float64(s.routes) * s.tagProb * float64(dnaLens[i])
		totalWeight += w
		if s.member.ASN == wellKnownMembers[0] {
			heWeight += w
		}
	}
	restBias := dnaNMTarget
	if totalWeight > 0 && totalWeight > heWeight {
		restBias = (dnaNMTarget*totalWeight - heBias*heWeight) / (totalWeight - heWeight)
	}
	restBias = clamp(restBias, 0.05, 0.95)

	drawTarget := func(s *memberState) uint32 {
		bias := restBias
		if s.member.ASN == wellKnownMembers[0] {
			bias = heBias
		}
		if rng.Float64() < bias {
			return nonMemberPool.draw(rng)
		}
		return memberPool.draw(rng)
	}

	// seen holds one list's targets so far; a member never targets
	// itself or AS 0.
	seen := make(map[uint32]bool)
	resetSeen := func(s *memberState) {
		clear(seen)
		seen[s.member.ASN], seen[0] = true, true
	}
	extUserForced, largeUserForced := false, false
	for i, s := range states {
		if s.isDNA {
			l := dnaLens[i]
			bias := restBias
			if s.member.ASN == wellKnownMembers[0] {
				bias = heBias
			}
			s.avoidList = make([]bgp.Community, 0, l)
			resetSeen(s)
			add := func(t uint32) {
				if !seen[t] {
					seen[t] = true
					s.avoidList = append(s.avoidList, scheme.DoNotAnnounce(uint16(t)))
				}
			}
			// Real avoid lists share a common head: everyone blankets
			// the same big content providers. Seed ~35% of the list
			// from the pool heads (split by the bias), then fill the
			// rest with popularity-weighted random draws.
			for _, t := range nonMemberPool.head(int(bias * float64(l) * 0.35)) {
				add(t)
			}
			for _, t := range memberPool.head(int((1 - bias) * float64(l) * 0.35)) {
				add(t)
			}
			for attempts := 0; len(s.avoidList) < l && attempts < l*40+200; attempts++ {
				add(drawTarget(s))
			}
		}
		if s.isAOT {
			l := aotLens[i]
			// Whitelists point at members you do want (plus the odd
			// future member), so the pool is member-heavy.
			s.allowList = append(make([]bgp.Community, 0, l+1), scheme.DoNotAnnounceAll())
			resetSeen(s)
			add := func(t uint32) {
				if !seen[t] {
					seen[t] = true
					s.allowList = append(s.allowList, scheme.AnnounceOnly(uint16(t)))
				}
			}
			for _, t := range memberPool.head(int(float64(l) * 0.3)) {
				add(t)
			}
			for attempts := 0; len(s.allowList)-1 < l && attempts < l*40+200; attempts++ {
				if rng.Float64() < 0.1 {
					add(nonMemberPool.draw(rng))
				} else {
					add(memberPool.draw(rng))
				}
			}
		}
		if s.isPrepend && scheme.SupportsPrepend {
			for _, t := range memberPool.drawDistinct(rng, 1+rng.Intn(2)) {
				c, err := scheme.Prepend(1+rng.Intn(3), uint16(t))
				if err == nil {
					s.prependTag = append(s.prependTag, c)
				}
			}
		}
		// Extension flavours. At AMS-IX fine-grained prepending exists
		// only as an extended community; a sliver of action users
		// exercises it. At large-community IXPs, some avoid lists name
		// 32-bit ASNs that standard communities cannot express.
		if scheme.SupportsExtPrepend && (s.isDNA || s.isAOT) && rng.Float64() < 0.30 {
			assignExtPrepend(s, scheme, memberPool, rng)
			extUserForced = true
		}
		if scheme.SupportsLarge && s.isDNA && rng.Float64() < 0.10 {
			assignLargeAvoid(s, scheme, rng)
			largeUserForced = true
		}
	}
	// Guarantee at least one user of each supported extension flavour,
	// picked from the tail so the forced volume stays small (states are
	// rank-ordered largest-first).
	for i := len(states) - 1; i >= 0 && scheme.SupportsExtPrepend && !extUserForced; i-- {
		if s := states[i]; s.isDNA || s.isAOT {
			assignExtPrepend(s, scheme, memberPool, rng)
			extUserForced = true
		}
	}
	for i := len(states) - 1; i >= 0 && scheme.SupportsLarge && !largeUserForced; i-- {
		if s := states[i]; s.isDNA {
			assignLargeAvoid(s, scheme, rng)
			largeUserForced = true
		}
	}
}

// assignExtPrepend gives one member an extended-community prepend tag.
func assignExtPrepend(s *memberState, scheme *dictionary.Scheme, memberPool *targetPool, rng *rand.Rand) {
	for _, t := range memberPool.drawDistinct(rng, 1) {
		if c, err := scheme.ExtPrepend(1+rng.Intn(3), uint16(t)); err == nil {
			s.prependExt = append(s.prependExt, c)
		}
	}
}

// assignLargeAvoid gives one member a large-community avoid list whose
// targets need 32 bits.
func assignLargeAvoid(s *memberState, scheme *dictionary.Scheme, rng *rand.Rand) {
	for n := 2 + rng.Intn(4); n > 0; n-- {
		target := uint32(262144 + rng.Intn(4000)) // 32-bit-only ASN
		if c, err := scheme.LargeDoNotAnnounce(target); err == nil {
			s.largeAvoid = append(s.largeAvoid, c)
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// normalizedLengths assigns heavy-tailed list lengths to the members
// selected by isUser so that Σ routes·tagProb·len ≈ target. The
// returned slice is indexed like states (zero for non-users).
func normalizedLengths(states []*memberState, rng *rand.Rand, target float64, maxList int, isUser func(*memberState) bool, boost func(*memberState) float64) []int {
	mults := make([]float64, len(states))
	weighted := 0.0
	for i, s := range states {
		if !isUser(s) {
			continue
		}
		mults[i] = math.Exp(rng.NormFloat64()*0.8-0.32) * boost(s)
		weighted += float64(s.routes) * s.tagProb * mults[i]
	}
	lens := make([]int, len(states))
	if weighted <= 0 || target <= 0 {
		for i, s := range states {
			if isUser(s) {
				lens[i] = 1
			}
		}
		return lens
	}
	// Two rounds: the clamps (floor 1, cap maxList) shift the realised
	// total, so rescale the unclamped members once to compensate.
	scale := target / weighted
	for round := 0; round < 2; round++ {
		realized, free := 0.0, 0.0
		for i, s := range states {
			if !isUser(s) {
				continue
			}
			l := int(math.Round(scale * mults[i]))
			clamped := false
			if l < 1 {
				l, clamped = 1, true
			}
			if l > maxList {
				l, clamped = maxList, true
			}
			lens[i] = l
			w := float64(s.routes) * s.tagProb
			realized += w * float64(l)
			if !clamped {
				free += w * scale * mults[i]
			}
		}
		if round == 1 || free <= 0 || realized <= 0 {
			break
		}
		// Adjust only the share the unclamped members can absorb.
		want := target - (realized - free)
		if want <= 0 {
			break
		}
		scale *= want / free
	}
	return lens
}

// poolCap bounds a target list by the distinct ASNs actually drawable
// from the two pools (minus the member itself).
func poolCap(member, nonMember *targetPool) int {
	n := len(member.asns) + len(nonMember.asns) - 1
	if n < 1 {
		n = 1
	}
	return n
}

// buildPools constructs the member and non-member target pools for an
// IXP, ranked so the paper's named networks head the popularity order.
func buildPools(p Profile, states []*memberState) (member, nonMember *targetPool) {
	memberSet := make(map[uint32]bool, len(states))
	var synthMembers []uint32
	for _, s := range states {
		memberSet[s.member.ASN] = true
		if s.member.ASN >= synthMemberBase && s.member.ASN < synthNonMemberBase {
			synthMembers = append(synthMembers, s.member.ASN)
		}
	}
	sort.Slice(synthMembers, func(i, j int) bool { return synthMembers[i] < synthMembers[j] })

	var memberHead []uint32
	for _, a := range memberHeadOrder[p.IXP] {
		if memberSet[a] {
			memberHead = append(memberHead, a)
		}
	}
	if len(memberHead) == 0 { // smaller IXPs: HE first if present
		for _, a := range wellKnownMembers {
			if memberSet[a] {
				memberHead = append(memberHead, a)
			}
		}
	}
	memberPool := newTargetPool(memberHead, synthMembers)

	nmHead := nonMemberHeadOrder[p.IXP]
	if nmHead == nil {
		nmHead = wellKnownNonMembers
	} else {
		nmHead = append(append([]uint32(nil), nmHead...), wellKnownNonMembers...)
	}
	// The non-member tail must stay comfortably larger than the longest
	// avoid-lists, or distinct-target draws saturate the pool and the
	// realised §5.5 share collapses towards the pool-size ratio.
	var nmTail []uint32
	nSynthNM := 200 + len(states)
	for i := 0; i < nSynthNM; i++ {
		nmTail = append(nmTail, uint32(synthNonMemberBase+i))
	}
	nonMemberPool := newTargetPool(nmHead, nmTail)
	return memberPool, nonMemberPool
}

// emitRoutes walks every member, materialises its routes with the full
// community composition and appends them to routes.
func emitRoutes(routes []bgp.Route, lists *routeLists, states []*memberState, fam FamilyParams, p Profile, v6 bool, rng *rand.Rand, totalRoutes, totalPrefixes int, prefixCounter *int) []bgp.Route {
	scheme := p.Scheme
	infoMean := fam.InfoPerRoute()
	unknownMean := fam.UnknownPerRoute()
	extLargeMean := fam.ExtLargePerRoute()

	alloc := &prefixAllocator{
		used:       make([]netip.Prefix, 0, totalPrefixes),
		takenBy:    make([]int32, 0, totalPrefixes),
		freshLeft:  totalPrefixes,
		routesLeft: totalRoutes,
		v6:         v6,
		counter:    prefixCounter,
	}
	var draws []int // sampleCount's scratch, reused by every call

	for si, s := range states {
		nh := netutil.PeerAddrV4(s.member.Index)
		if v6 {
			nh = netutil.PeerAddrV6(s.member.Index)
		}
		for k := 0; k < s.routes; k++ {
			r := lists.scratch()
			r.Prefix = alloc.pick(rng, int32(si))
			r.NextHop = nh
			r.ASPath = buildPath(r.ASPath, s.member.ASN, rng)
			r.Origin = bgp.OriginIGP
			tagged := (s.isDNA || s.isAOT || s.isPrepend) && rng.Float64() < s.tagProb
			if tagged {
				if s.isDNA {
					r.Communities = append(r.Communities, s.avoidList...)
					r.LargeCommunities = append(r.LargeCommunities, s.largeAvoid...)
				}
				if s.isAOT {
					r.Communities = append(r.Communities, s.allowList...)
				}
				if s.isPrepend && rng.Float64() < 0.5 {
					r.Communities = append(r.Communities, s.prependTag...)
				}
				if len(s.prependExt) > 0 && rng.Float64() < 0.5 {
					r.ExtCommunities = append(r.ExtCommunities, s.prependExt...)
				}
			}
			// Informational tags (as the RS would attach on ingress).
			draws = sampleCount(rng, infoMean, draws)
			for _, k := range draws {
				if info, err := scheme.Info(k % scheme.InfoCount); err == nil {
					if !bgp.HasCommunity(r.Communities, info) {
						r.Communities = append(r.Communities, info)
					}
				}
			}
			// Member-private (unknown) communities.
			draws = sampleCount(rng, unknownMean, draws)
			for range draws {
				r.Communities = append(r.Communities, memberPrivate(s.member.ASN, rng))
			}
			// Extended / large IXP-defined informational tags (60/40
			// where the IXP defines large communities, ext-only else).
			draws = sampleCount(rng, extLargeMean, draws)
			for range draws {
				if !scheme.SupportsLarge || rng.Float64() < 0.6 {
					r.ExtCommunities = append(r.ExtCommunities, scheme.ExtInfo(rng.Intn(64)))
				} else if info, err := scheme.LargeInfo(rng.Intn(scheme.InfoCount)); err == nil {
					r.LargeCommunities = append(r.LargeCommunities, info)
				}
			}
			routes = append(routes, lists.carve())
		}
		// Blackhole users add a few host routes on top.
		if s.isBH && scheme.SupportsBlackhole {
			bhComm, _ := scheme.BlackholeCommunity()
			for b, nBH := 0, 1+rng.Intn(3); b < nBH; b++ {
				routes = append(routes, blackholeRoute(lists, s, b, v6, nh, bhComm))
			}
		}
	}
	return routes
}

// routeLists gives every route of one Generate run its own attribute
// lists without allocating per route: a route is composed in a reused
// scratch route, then carve copies each list into a shared slab.
type routeLists struct {
	r      bgp.Route
	paths  slab[bgp.ASPath, uint32]
	comms  slab[[]bgp.Community, bgp.Community]
	exts   slab[[]bgp.ExtendedCommunity, bgp.ExtendedCommunity]
	larges slab[[]bgp.LargeCommunity, bgp.LargeCommunity]
}

// scratch returns the scratch route, zeroed but for its lists' capacity.
func (l *routeLists) scratch() *bgp.Route {
	l.r = bgp.Route{
		ASPath:           l.r.ASPath[:0],
		Communities:      l.r.Communities[:0],
		ExtCommunities:   l.r.ExtCommunities[:0],
		LargeCommunities: l.r.LargeCommunities[:0],
	}
	return &l.r
}

// carve returns the scratch route with its lists copied into the slabs.
func (l *routeLists) carve() bgp.Route {
	r := l.r
	r.ASPath = l.paths.copyOf(r.ASPath)
	r.Communities = l.comms.copyOf(r.Communities)
	r.ExtCommunities = l.exts.copyOf(r.ExtCommunities)
	r.LargeCommunities = l.larges.copyOf(r.LargeCommunities)
	return r
}

// slabChunk is how many elements a slab allocates at a time.
const slabChunk = 4096

// slab hands out copies of short lists from shared chunks. A copy is
// s[i:j:j]: with its capacity at its length, an append to one list
// reallocates instead of reaching into its neighbour. An empty list
// comes back nil, as append(nil, empty...) leaves it.
type slab[S ~[]E, E any] struct{ buf S }

func (s *slab[S, E]) copyOf(src S) S {
	if len(src) == 0 {
		return nil
	}
	if cap(s.buf)-len(s.buf) < len(src) {
		s.buf = make(S, 0, max(slabChunk, len(src)))
	}
	i := len(s.buf)
	s.buf = append(s.buf, src...)
	return s.buf[i:len(s.buf):len(s.buf)]
}

// sampleCount turns a fractional mean into an integer draw: the whole
// part always, plus one more with the fractional probability. It
// returns that many index slots usable for variety, in buf's backing
// array. All of a call's draws are taken before it returns — the
// caller's loop body draws after them — which is the order of the RNG
// stream every generated dataset is pinned to.
func sampleCount(rng *rand.Rand, mean float64, buf []int) []int {
	n := int(mean)
	if rng.Float64() < mean-float64(n) {
		n++
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, rng.Intn(1<<20))
	}
	return buf
}

// prefixAllocator hands out route prefixes so that the number of
// distinct prefixes lands on the Table 1 target while routes exceed
// prefixes through multi-member announcements. The fresh-vs-reuse
// probability adapts to the remaining budget, which keeps the realised
// distinct count on target regardless of the member size distribution.
type prefixAllocator struct {
	used []netip.Prefix
	// takenBy parallels used: the member that last took each prefix.
	// Members take their routes one after another and every minted
	// prefix is distinct, so a member already announces used[i] exactly
	// when takenBy[i] is that member.
	takenBy    []int32
	freshLeft  int
	routesLeft int
	v6         bool
	counter    *int
}

func (a *prefixAllocator) mint(member int32) netip.Prefix {
	var p netip.Prefix
	if a.v6 {
		p = netutil.SyntheticV6Prefix(*a.counter)
	} else {
		p = netutil.SyntheticV4Prefix(*a.counter)
	}
	*a.counter++
	a.freshLeft--
	a.used = append(a.used, p)
	a.takenBy = append(a.takenBy, member)
	return p
}

func (a *prefixAllocator) pick(rng *rand.Rand, member int32) netip.Prefix {
	defer func() { a.routesLeft-- }()
	freshProb := 1.0
	if a.routesLeft > 0 {
		freshProb = float64(a.freshLeft) / float64(a.routesLeft)
	}
	if a.freshLeft > 0 && (len(a.used) == 0 || rng.Float64() < freshProb) {
		return a.mint(member)
	}
	for attempt := 0; attempt < 12; attempt++ {
		i := rng.Intn(len(a.used))
		if a.takenBy[i] != member {
			a.takenBy[i] = member
			return a.used[i]
		}
	}
	// The member already announces everything we sampled; minting is
	// the only way out (slightly overshoots the distinct target).
	if a.freshLeft <= 0 {
		a.freshLeft = 1
	}
	return a.mint(member)
}

// buildPath gives 60% of routes a direct origination and the rest a
// short customer cone behind the member, composed in path's backing
// array.
func buildPath(path bgp.ASPath, memberASN uint32, rng *rand.Rand) bgp.ASPath {
	path = append(path[:0], memberASN)
	if rng.Float64() < 0.4 {
		hops := 1 + rng.Intn(3)
		for i := 0; i < hops; i++ {
			hop := uint32(synthHopBase + rng.Intn(50000))
			// Keep hops distinct: the route server rejects looped paths.
			for path.Contains(hop) {
				hop++
			}
			path = append(path, hop)
		}
	}
	return path
}

// memberPrivate builds an unknown community whose high half is the
// member's own ASN. Member ASNs never collide with a scheme's anchor
// ASNs (see TestMemberASNsAvoidSchemeAnchors), so these always
// classify as unknown.
func memberPrivate(asn uint32, rng *rand.Rand) bgp.Community {
	return bgp.NewCommunity(uint16(asn), uint16(rng.Intn(1000)))
}

// blackholeRoute builds one /32 (or /128) host route tagged RFC 7999.
func blackholeRoute(lists *routeLists, s *memberState, b int, v6 bool, nh netip.Addr, bhComm bgp.Community) bgp.Route {
	r := lists.scratch()
	if v6 {
		base := netutil.SyntheticV6Prefix(int(s.member.ASN%10000)*4 + b)
		r.Prefix = netip.PrefixFrom(base.Addr(), 128)
	} else {
		base := netutil.SyntheticV4Prefix(int(s.member.ASN%10000)*4 + b)
		r.Prefix = netip.PrefixFrom(base.Addr(), 32)
	}
	r.NextHop = nh
	r.ASPath = append(r.ASPath, s.member.ASN)
	r.Origin = bgp.OriginIGP
	r.Communities = append(r.Communities, bhComm)
	return lists.carve()
}
