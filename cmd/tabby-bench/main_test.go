package main

import "testing"

func TestRunValidation(t *testing.T) {
	for _, table := range []string{"nonsense", "parallel", "build", "incremental", "query", "snapshot", "serve"} {
		if err := run(table, 1, 1); err == nil {
			t.Errorf("table %q must error", table)
		}
	}
}

func TestRunQuickTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	// Table 8 at tiny scale, then the cheap tables.
	if err := run("8", 0.01, 1); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"10", "11"} {
		if err := run(table, 1, 1); err != nil {
			t.Fatalf("table %s: %v", table, err)
		}
	}
}
