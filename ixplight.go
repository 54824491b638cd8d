package ixplight

import (
	"context"
	"io"

	"ixplight/internal/analysis"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
	"ixplight/internal/lg"
	"ixplight/internal/mrt"
	"ixplight/internal/report"
	"ixplight/internal/rs"
	"ixplight/internal/rsconfig"
	"ixplight/internal/sanitize"
	"ixplight/internal/webdocs"
)

// BGP model.
type (
	// Community is an RFC 1997 standard BGP community.
	Community = bgp.Community
	// ExtendedCommunity is an RFC 4360 extended community.
	ExtendedCommunity = bgp.ExtendedCommunity
	// LargeCommunity is an RFC 8092 large community.
	LargeCommunity = bgp.LargeCommunity
	// Route is one RIB entry with its community lists.
	Route = bgp.Route
	// ASPath is a BGP AS path.
	ASPath = bgp.ASPath
)

// ParseCommunity parses "asn:value" notation.
func ParseCommunity(s string) (Community, error) { return bgp.ParseCommunity(s) }

// Dictionary and classification.
type (
	// Scheme is one IXP's community encoding.
	Scheme = dictionary.Scheme
	// Class is the classification of a community under a scheme.
	Class = dictionary.Class
	// ActionType is the paper's community taxonomy.
	ActionType = dictionary.ActionType
	// Dictionary is an indexed set of enumerated community entries.
	Dictionary = dictionary.Dictionary
)

// Action types (informational plus the four §5.3 groups).
const (
	Informational   = dictionary.Informational
	DoNotAnnounceTo = dictionary.DoNotAnnounceTo
	AnnounceOnlyTo  = dictionary.AnnounceOnlyTo
	PrependTo       = dictionary.PrependTo
	Blackhole       = dictionary.Blackhole
)

// SchemeByName returns the community scheme of one of the eight IXPs.
func SchemeByName(name string) *Scheme { return dictionary.ProfileByName(name) }

// BuildDictionary enumerates and indexes a scheme's dictionary.
func BuildDictionary(s *Scheme) *Dictionary { return dictionary.Build(s) }

// Route server.
type (
	// RouteServer is an RFC 7947 route server executing action
	// communities.
	RouteServer = rs.Server
	// RSConfig parameterises a route server.
	RSConfig = rs.Config
	// Peer is one member session at a route server.
	Peer = rs.Peer
)

// NewRouteServer builds a route server.
func NewRouteServer(cfg RSConfig) (*RouteServer, error) { return rs.New(cfg) }

// Looking glass.
type (
	// LGServer exposes a route server over the HTTP JSON API.
	LGServer = lg.Server
	// LGClient crawls a looking glass.
	LGClient = lg.Client
	// LGClientOptions tunes the crawler.
	LGClientOptions = lg.ClientOptions
	// LGRequestBudget caps in-flight requests across several crawlers.
	LGRequestBudget = lg.RequestBudget
)

// NewLGRequestBudget builds a global budget of n concurrent requests
// to share across clients via LGClientOptions.Budget.
func NewLGRequestBudget(n int) *LGRequestBudget { return lg.NewRequestBudget(n) }

// NewLGServer wraps a route server with the looking-glass API.
func NewLGServer(server *RouteServer) *LGServer { return lg.NewServer(server) }

// NewLGClient builds a crawler for the LG at base URL.
func NewLGClient(base string, opts LGClientOptions) *LGClient { return lg.NewClient(base, opts) }

// Snapshots and datasets.
type (
	// Snapshot is one day's view of one IXP route server.
	Snapshot = collector.Snapshot
	// Member is one AS present in a snapshot.
	Member = collector.Member
	// SnapshotCodec selects a serialisation format.
	SnapshotCodec = collector.Codec
)

// CodecBinary is the snapshot codec: the columnar binary format.
const CodecBinary = collector.CodecBinary

// SaveSnapshot writes a snapshot into dir with the codec's canonical
// name and extension, returning the path.
func SaveSnapshot(dir string, s *Snapshot, codec SnapshotCodec) (string, error) {
	return collector.SaveSnapshot(dir, s, codec)
}

// LoadSnapshot reads one binary snapshot file.
func LoadSnapshot(path string) (*Snapshot, error) { return collector.LoadSnapshot(path) }

// Workload generation.
type (
	// Profile is one IXP's paper-calibrated generation profile.
	Profile = ixpgen.Profile
	// Workload is a generated set of members and routes.
	Workload = ixpgen.Workload
	// GenOptions parameterise a generation run.
	GenOptions = ixpgen.Options
	// TemporalOptions parameterise a snapshot time series.
	TemporalOptions = ixpgen.TemporalOptions
)

// Profiles returns the eight calibrated IXP profiles.
func Profiles() []Profile { return ixpgen.Profiles() }

// ProfileByName returns one profile, or nil.
func ProfileByName(name string) *Profile { return ixpgen.ProfileByName(name) }

// Generate builds a workload for one profile.
func Generate(p Profile, opt GenOptions) (*Workload, error) { return ixpgen.Generate(p, opt) }

// GenerateDay builds the workload for day d of a temporal series and
// returns its date stamp.
func GenerateDay(p Profile, o TemporalOptions, d int) (*Workload, string, error) {
	return ixpgen.GenerateDay(p, o, d)
}

// Analyses (one per paper artifact): each is a method on the
// classified index of one snapshot.
type (
	// Index is one snapshot classified through its IXP's scheme; its
	// methods are the paper's analyses (Mix, ActionShare, Usage,
	// NonMemberTargeting, …).
	Index = analysis.Index
	// Mix is the Fig. 1/2 community type mix.
	Mix = analysis.Mix
	// Usage is the Fig. 4a usage summary.
	Usage = analysis.Usage
	// NonMemberTargeting is the §5.5 summary.
	NonMemberTargeting = analysis.NonMemberTargeting
)

// NewIndex classifies every community on every route of s once; build
// it once per snapshot and read every analysis off it.
func NewIndex(s *Snapshot, scheme *Scheme) *Index { return analysis.NewIndex(s, scheme) }

// CleanSnapshots removes §3 collection valleys from a series.
func CleanSnapshots(snaps []*Snapshot) (kept []*Snapshot, removed int) {
	return sanitize.Clean(snaps, sanitize.Options{})
}

// CollectTarget is one looking glass in a multi-IXP collection run.
type CollectTarget = collector.Target

// CollectResult is the outcome of crawling one target.
type CollectResult = collector.Result

// CollectOptions tunes a crawl's fault tolerance: degraded (partial)
// snapshots, per-neighbor retries, error budget, checkpoint/resume.
type CollectOptions = collector.CollectOptions

// MemberError records one neighbor missing from a partial snapshot.
type MemberError = collector.MemberError

// CollectCheckpoint persists crawl progress for resumable collections.
type CollectCheckpoint = collector.Checkpoint

// CollectMultiOptions tunes a multi-target collection run: target
// parallelism plus the global in-flight request budget.
type CollectMultiOptions = collector.MultiOptions

// CollectAll crawls several looking glasses concurrently.
func CollectAll(ctx context.Context, targets []CollectTarget, date string, parallel int) []CollectResult {
	return collector.CollectAll(ctx, targets, date, parallel)
}

// CollectAllWithOptions crawls several looking glasses with full
// control over how target- and neighbor-level parallelism compose.
func CollectAllWithOptions(ctx context.Context, targets []CollectTarget, date string, opts CollectMultiOptions) []CollectResult {
	return collector.CollectAllWithOptions(ctx, targets, date, opts)
}

// WriteMRT dumps a snapshot as an MRT TABLE_DUMP_V2 archive (the
// RouteViews/RIPE RIS interchange format).
func WriteMRT(w io.Writer, s *Snapshot) error { return mrt.WriteRIB(w, s) }

// ReadMRT parses an MRT TABLE_DUMP_V2 archive into a snapshot.
func ReadMRT(r io.Reader) (*Snapshot, error) { return mrt.ReadRIB(r) }

// RenderRSConfig emits a BIRD-style route-server configuration for a
// scheme — the §3 artifact the dictionary extraction parses.
func RenderRSConfig(s *Scheme) string { return rsconfig.Render(s, rsconfig.Options{}) }

// RenderWebDocs emits the website community-documentation page for a
// scheme — the second §3 dictionary source.
func RenderWebDocs(s *Scheme) string { return webdocs.Render(s) }

// Lab bundles generated snapshots for running paper experiments.
type Lab = report.Lab

// NewLab generates the experiment lab for the given profiles.
func NewLab(profiles []Profile, seed int64, scale float64) (*Lab, error) {
	return report.NewLab(profiles, seed, scale)
}

// RunExperiment executes one paper experiment by name ("table1",
// "fig1" … "fig7", "table3", "table4", "sanitation").
func RunExperiment(l *Lab, w io.Writer, name string) error { return l.Run(w, name) }

// Experiments lists the runnable experiment names.
func Experiments() []string { return report.ExperimentNames }
