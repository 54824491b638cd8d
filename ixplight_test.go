package ixplight

// Integration tests over the public facade: the API a downstream user
// sees must carry the whole pipeline.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	scheme := SchemeByName("DE-CIX")
	if scheme == nil {
		t.Fatal("no DE-CIX scheme")
	}
	c, err := ParseCommunity("0:15169")
	if err != nil {
		t.Fatal(err)
	}
	cl := scheme.Classify(c)
	if !cl.Known || cl.Action != DoNotAnnounceTo || cl.TargetASN != 15169 {
		t.Errorf("classification = %+v", cl)
	}
	if dict := BuildDictionary(scheme); dict.Size() != 774 {
		t.Errorf("dictionary size = %d", dict.Size())
	}
}

func TestPublicGenerateAnalyze(t *testing.T) {
	profile := ProfileByName("LINX")
	if profile == nil {
		t.Fatal("no LINX profile")
	}
	w, err := Generate(*profile, GenOptions{Seed: 9, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot("2021-10-04")
	ix := NewIndex(snap, profile.Scheme)
	u := ix.Usage(false)
	if u.ASesUsing == 0 || u.RoutesTagged == 0 {
		t.Errorf("usage = %+v", u)
	}
	if share := ix.ActionShare(false); share < 0.5 {
		t.Errorf("action share = %f", share)
	}
	nm := ix.NonMemberTargeting(false, 5)
	if nm.Share() <= 0 || len(nm.Top) == 0 {
		t.Errorf("non-member targeting = %+v", nm)
	}
	mix := ix.Mix(false)
	if mix.Total() == 0 || mix.DefinedShare() <= 0.5 {
		t.Errorf("mix = %+v", mix)
	}
}

func TestPublicRouteServerFlow(t *testing.T) {
	scheme := SchemeByName("DE-CIX")
	server, err := NewRouteServer(RSConfig{Scheme: scheme, ScrubActions: true})
	if err != nil {
		t.Fatal(err)
	}
	profile := ProfileByName("DE-CIX")
	w, err := Generate(*profile, GenOptions{Seed: 3, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(server); err != nil {
		t.Fatal(err)
	}
	peers := server.Peers()
	if len(peers) == 0 {
		t.Fatal("no peers")
	}
	if got := server.ExportTo(peers[0].ASN); len(got) == 0 {
		t.Error("no export towards first peer")
	}
}

func TestPublicLabExperiments(t *testing.T) {
	lab, err := NewLab([]Profile{*ProfileByName("AMS-IX")}, 5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	names := Experiments()
	if len(names) < 15 {
		t.Fatalf("experiments = %d", len(names))
	}
	var buf bytes.Buffer
	if err := RunExperiment(lab, &buf, "fig4a"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AMS-IX") {
		t.Errorf("experiment output: %s", buf.String())
	}
}

func TestPublicSanitation(t *testing.T) {
	profile := ProfileByName("AMS-IX")
	opts := TemporalOptions{Seed: 2, Scale: 0.005, Days: 10, ValleyDays: []int{4}}
	var snaps []*Snapshot
	for d := 0; d < opts.Days; d++ {
		w, date, err := GenerateDay(*profile, opts, d)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, w.Snapshot(date))
	}
	kept, removed := CleanSnapshots(snaps)
	if removed != 1 {
		t.Errorf("removed = %d, want 1", removed)
	}
	if len(kept) != 9 {
		t.Errorf("kept = %d", len(kept))
	}
}

func TestPublicMRTRoundTrip(t *testing.T) {
	profile := ProfileByName("AMS-IX")
	w, err := Generate(*profile, GenOptions{Seed: 8, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot("2021-10-04")
	var buf bytes.Buffer
	if err := WriteMRT(&buf, snap); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Routes) != len(snap.Routes) {
		t.Errorf("routes = %d, want %d", len(out.Routes), len(snap.Routes))
	}
}

func TestPublicConfigArtifacts(t *testing.T) {
	scheme := SchemeByName("DE-CIX")
	cfg := RenderRSConfig(scheme)
	if !strings.Contains(cfg, "define rs_asn = 6695;") {
		t.Error("RS config missing ASN")
	}
	page := RenderWebDocs(scheme)
	if !strings.Contains(page, "DE-CIX") || !strings.Contains(page, "<table") {
		t.Error("web docs malformed")
	}
}

func TestPublicCollectAll(t *testing.T) {
	profile := ProfileByName("LINX")
	server, err := NewRouteServer(RSConfig{Scheme: profile.Scheme})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(*profile, GenOptions{Seed: 1, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(server); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewLGServer(server))
	defer ts.Close()

	results := CollectAll(context.Background(),
		[]CollectTarget{{Name: "LINX", URL: ts.URL}}, "2021-10-04", 1)
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Snapshot.IXP != "LINX" {
		t.Errorf("snapshot IXP = %q", results[0].Snapshot.IXP)
	}
}
