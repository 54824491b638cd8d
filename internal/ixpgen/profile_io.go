package ixpgen

import (
	"encoding/json"
	"fmt"
	"os"
)

// Profiles are plain data, so custom IXPs — beyond the paper's eight —
// can be described in JSON and fed to the generator. cmd/ixpgen's
// -profile flag uses this.

// LoadProfile reads and validates a JSON profile.
func LoadProfile(path string) (*Profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("ixpgen: parse profile %s: %w", path, err)
	}
	if err := validateProfile(p); err != nil {
		return nil, fmt.Errorf("ixpgen: profile %s: %w", path, err)
	}
	return &p, nil
}

// validateProfile checks the invariants Generate depends on. It is the
// contract a hand-written profile must meet.
func validateProfile(p Profile) error {
	if p.IXP == "" {
		return fmt.Errorf("profile needs an IXP name")
	}
	if p.Scheme == nil {
		return fmt.Errorf("profile needs a community scheme")
	}
	if err := p.Scheme.Validate(); err != nil {
		return err
	}
	for name, fam := range map[string]FamilyParams{"v4": p.V4, "v6": p.V6} {
		if fam.MembersAtRS <= 0 {
			return fmt.Errorf("%s: MembersAtRS must be positive", name)
		}
		if fam.Routes < fam.Prefixes {
			return fmt.Errorf("%s: routes (%d) below prefixes (%d)", name, fam.Routes, fam.Prefixes)
		}
		for label, v := range map[string]float64{
			"ActionUserFrac": fam.ActionUserFrac, "TaggedRouteFrac": fam.TaggedRouteFrac,
			"DNAUserFrac": fam.DNAUserFrac, "AOTUserFrac": fam.AOTUserFrac,
			"PrependUserFrac": fam.PrependUserFrac, "BHUserFrac": fam.BHUserFrac,
			"DNAOccShare": fam.DNAOccShare, "AOTOccShare": fam.AOTOccShare,
			"DefinedShare": fam.DefinedShare, "StandardShare": fam.StandardShare,
			"ActionShare": fam.ActionShare, "NonMemberTargetShare": fam.NonMemberTargetShare,
		} {
			if v < 0 || v > 1 {
				return fmt.Errorf("%s: %s = %f outside [0,1]", name, label, v)
			}
		}
		if fam.ActionPerRoute < 0 {
			return fmt.Errorf("%s: negative ActionPerRoute", name)
		}
		if fam.DNAOccShare+fam.AOTOccShare > 1 {
			return fmt.Errorf("%s: DNA+AOT occurrence shares exceed 1", name)
		}
	}
	if p.V6.MembersAtRS > p.V4.MembersAtRS {
		return fmt.Errorf("v6 members (%d) exceed v4 (%d): v6 membership is modelled as a subset",
			p.V6.MembersAtRS, p.V4.MembersAtRS)
	}
	return nil
}
