package main

import (
	"testing"

	"anyk/internal/dataset"
	"anyk/internal/query"
)

// TestSetupRelations: -setup generates exactly the relations the session
// query reads, so every family's sessions find their data.
func TestSetupRelations(t *testing.T) {
	for family, want := range map[string]int{"path3": 3, "path4": 4, "cycle4": 4, "star3": 3} {
		got, err := setupRelations(family)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if got != want {
			t.Fatalf("%s: %d relations, want %d", family, got, want)
		}
		q, _ := query.ParseFamily(family)
		db := dataset.Uniform(got, 10, 7)
		for _, a := range q.Atoms {
			if db.Relation(a.Rel) == nil {
				t.Fatalf("%s: relation %s missing from the setup dataset %v", family, a.Rel, db.Names())
			}
		}
	}
	if _, err := setupRelations("nosuch4"); err == nil {
		t.Fatal("unknown family accepted")
	}
}
