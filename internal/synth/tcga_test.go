package synth

import (
	"testing"
)

func TestTCGAScenario(t *testing.T) {
	sc := New(31).TCGA(TCGAOptions{Patients: 120})
	if err := sc.Mutations.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sc.GeneAnnotations.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sc.Mutations.Samples) != 120 {
		t.Fatalf("patients = %d", len(sc.Mutations.Samples))
	}
	if len(sc.Subtypes) != 3 {
		t.Fatalf("subtypes = %v", sc.Subtypes)
	}
	for _, st := range sc.Subtypes {
		if len(sc.Drivers[st]) != 3 {
			t.Errorf("drivers[%s] = %v", st, sc.Drivers[st])
		}
	}
	// Clinical metadata present on every patient.
	for _, s := range sc.Mutations.Samples {
		for _, attr := range []string{"subtype", "stage", "age", "sex"} {
			if !s.Meta.Has(attr) {
				t.Fatalf("patient %s missing %s", s.ID, attr)
			}
		}
	}
}

func TestTCGADriverEnrichment(t *testing.T) {
	sc := New(32).TCGA(TCGAOptions{Patients: 200})
	gi, _ := sc.Mutations.Schema.Index("gene")
	// For each subtype, its drivers must be mutated in far more of its own
	// patients than in patients of other subtypes.
	mutatedIn := func(gene, subtype string, invert bool) (hit, total int) {
		for _, s := range sc.Mutations.Samples {
			match := s.Meta.Matches("subtype", subtype)
			if invert {
				match = !match
			}
			if !match {
				continue
			}
			total++
			for i := range s.Regions {
				if s.Row(i)[gi].Str() == gene {
					hit++
					break
				}
			}
		}
		return hit, total
	}
	for _, st := range sc.Subtypes {
		for _, driver := range sc.Drivers[st] {
			ownHit, ownTotal := mutatedIn(driver, st, false)
			otherHit, otherTotal := mutatedIn(driver, st, true)
			ownRate := float64(ownHit) / float64(ownTotal)
			otherRate := float64(otherHit) / float64(otherTotal)
			if ownRate < 0.5 {
				t.Errorf("%s driver %s mutated in only %.0f%% of own patients", st, driver, 100*ownRate)
			}
			if otherRate > 0.3 {
				t.Errorf("%s driver %s mutated in %.0f%% of other patients", st, driver, 100*otherRate)
			}
		}
	}
}

func TestTCGADeterministic(t *testing.T) {
	a := New(33).TCGA(TCGAOptions{Patients: 20})
	b := New(33).TCGA(TCGAOptions{Patients: 20})
	if a.Mutations.NumRegions() != b.Mutations.NumRegions() {
		t.Error("same seed differs")
	}
	if a.Mutations.Samples[0].ID != b.Mutations.Samples[0].ID {
		t.Error("sample IDs differ")
	}
}
