package experiments_test

import (
	"os"
	"strings"
	"testing"

	"natpunch/internal/experiments"
)

// TestTable1Reproduction is the headline check: NAT Check over the
// generated vendor populations reproduces every per-vendor cell of
// Table 1.
func TestTable1Reproduction(t *testing.T) {
	r := suiteResult(t, "E1")
	if r.Metrics["row_mismatches"] != 0 {
		t.Fatalf("Table 1 rows mismatched:\n%s", r.Table)
	}
	if r.Metrics["devices"] != 380 {
		t.Errorf("devices = %v, want 380", r.Metrics["devices"])
	}
	// The paper's headline numbers.
	if r.Metrics["udp_punch_pct"] != 82 {
		t.Errorf("UDP punch = %v%%, want 82%%", r.Metrics["udp_punch_pct"])
	}
	if r.Metrics["tcp_punch_pct"] != 64 {
		t.Errorf("TCP punch = %v%%, want 64%%", r.Metrics["tcp_punch_pct"])
	}
	for _, vendor := range []string{"Linksys", "Netgear", "D-Link", "Draytek", "Belkin", "Cisco", "SMC", "ZyXEL", "3Com", "Windows", "Linux", "FreeBSD"} {
		if !strings.Contains(r.Table, vendor) {
			t.Errorf("table missing vendor %s", vendor)
		}
	}
}

func TestFigureExperiments(t *testing.T) {
	checks := map[string]func(t *testing.T, r experiments.Result){
		"E2": func(t *testing.T, r experiments.Result) {
			// Only private->public directions work: 2 of 6 pairs.
			if r.Metrics["reachable_pairs"] != 2 {
				t.Errorf("reachable pairs = %v, want 2", r.Metrics["reachable_pairs"])
			}
		},
		"E3": func(t *testing.T, r experiments.Result) {
			if r.Metrics["relay_rtt_ms"] <= r.Metrics["direct_rtt_ms"] {
				t.Errorf("relay RTT %vms should exceed direct %vms",
					r.Metrics["relay_rtt_ms"], r.Metrics["direct_rtt_ms"])
			}
			if r.Metrics["relay_bytes"] == 0 {
				t.Error("relay forwarded no bytes")
			}
		},
		"E4": func(t *testing.T, r experiments.Result) {
			if r.Metrics["reversal_ok"] != 1 {
				t.Error("reversal failed")
			}
		},
		"E5": func(t *testing.T, r experiments.Result) {
			if r.Metrics["private_locked"] != 1 {
				t.Errorf("common-NAT punch did not lock private endpoints:\n%s", r.Table)
			}
		},
		"E6": func(t *testing.T, r experiments.Result) {
			// All 7 cone-involving-only combos + symmetric x full-cone
			// succeed; see the experiment notes. At minimum the 9
			// cone x cone cells must all pass.
			if r.Metrics["successes"] < 9 {
				t.Errorf("only %v successes:\n%s", r.Metrics["successes"], r.Table)
			}
		},
		"E7": func(t *testing.T, r experiments.Result) {
			if r.Metrics["needs_hairpin"] != 1 {
				t.Errorf("multi-level hairpin dependency not observed:\n%s", r.Table)
			}
		},
		"E8": func(t *testing.T, r experiments.Result) {
			if r.Metrics["ports_mid_punch"] != 1 {
				t.Errorf("punching used %v local ports, want 1 (Figure 7)", r.Metrics["ports_mid_punch"])
			}
			if r.Metrics["sockets_mid_punch"] < 3 {
				t.Errorf("expected >=3 sockets mid-punch, got %v", r.Metrics["sockets_mid_punch"])
			}
		},
		"E9": func(t *testing.T, r experiments.Result) {
			if r.Metrics["consistent"] != 1 || r.Metrics["hairpin"] != 1 {
				t.Errorf("NAT Check walkthrough wrong: %+v", r.Metrics)
			}
			if !strings.Contains(r.Table, "packet trace") {
				t.Error("trace missing")
			}
		},
		"E16": func(t *testing.T, r experiments.Result) {
			if r.Metrics["plain_ok"] != 0 || r.Metrics["obfuscated_ok"] != 1 {
				t.Errorf("mangling experiment: %+v", r.Metrics)
			}
		},
		"E17": func(t *testing.T, r experiments.Result) {
			if r.Metrics["punched"]+r.Metrics["relayed"] != r.Metrics["pairs"] {
				t.Errorf("connector did not reach full connectivity: %+v", r.Metrics)
			}
		},
	}
	results := suiteRun()
	for i, e := range experiments.All() {
		if e.ID == "E1" {
			continue // checked by TestTable1Reproduction
		}
		t.Run(e.ID, func(t *testing.T) {
			r := results[i]
			if r.Table == "" {
				t.Fatal("empty table")
			}
			if r.ID != e.ID {
				t.Errorf("result ID %s != %s", r.ID, e.ID)
			}
			if check, ok := checks[e.ID]; ok {
				check(t, r)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := experiments.Lookup("E1"); !ok {
		t.Error("E1 missing")
	}
	if _, ok := experiments.Lookup("E99"); ok {
		t.Error("E99 should not exist")
	}
}

// TestExperimentsMarkdownMatchesRun pins EXPERIMENTS.md: its fenced
// block must be exactly what `go run ./cmd/experiments -seed 1`
// prints (each result, then a blank line), so a change that moves any
// E-table fails here until the file is regenerated.
func TestExperimentsMarkdownMatchesRun(t *testing.T) {
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(md), "\n```\n")
	if ok {
		block, _, ok = strings.Cut(block, "\n```")
	}
	if !ok {
		t.Fatal("EXPERIMENTS.md has no fenced block")
	}
	var b strings.Builder
	for _, r := range suiteRun() {
		b.WriteString(r.String() + "\n\n")
	}
	got := strings.TrimRight(b.String(), "\n")
	if got == block {
		return
	}
	run, doc := strings.Split(got, "\n"), strings.Split(block, "\n")
	i := 0
	for i < len(run) && i < len(doc) && run[i] == doc[i] {
		i++
	}
	run, doc = append(run, ""), append(doc, "") // one line past the end reads as empty
	t.Fatalf("EXPERIMENTS.md differs from the seed-1 run at line %d of its fenced block "+
		"(regenerate with go run ./cmd/experiments -seed 1):\n run: %q\n doc: %q", i+1, run[i], doc[i])
}
