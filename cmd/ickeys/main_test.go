package main

import (
	"strings"
	"testing"
)

// TestRunLifecycle drives the key lifecycle walkthrough end to end for
// each way of establishing a key and each epoch transition: every run
// exits nil and prints the lines that show what happened, among them the
// verdict on every partial before it is combined — honest partials of the
// current epoch verify, a stale one is rejected — and the one error both
// schemes give for a co-signer set holding the stale partial.
func TestRunLifecycle(t *testing.T) {
	const (
		blamed   = "player 3 blamed with proof (opening contradicts commitment) and excluded"
		silent   = "player 5 never dealt — excluded without proof (crash-indistinguishable)"
		verified = "verification: OK — any recipient can now check that 3 players co-signed"
		refresh  = "proactive refresh: re-randomizing every share..."
		staleRef = "a stale (pre-refresh) share no longer combines with fresh ones:"
		staleRes = "a stale (pre-reshare) share does not combine with the new layout:"
		corrupt  = "thresh: invalid partial signature: combined signature invalid (corrupt partial among "
		reshare  = "quorum reshare: moving the key to threshold 3 among 7 players..."
		quorum   = "fresh 3+1 quorum signs under the same public key: OK"
		epoch01  = "key epoch 0 -> 1; public key unchanged"
		epoch12  = "key epoch 1 -> 2; public key unchanged"
		dkg      = "-dkg -dkgfaults 3:stubborn,5:silent"
		ok1      = "check: partial 1 verifies"
		ok2      = "check: partial 2 verifies"
		ok3      = "check: partial 3 verifies"
		ok4      = "check: partial 4 verifies"
		stale1   = "check: partial 1 REJECTED"
	)
	// The dealt key signs with shares 1, 2, 3; the generated one with 1,
	// 2, 4 (3 is blamed). After a refresh the stale share 1 joins fresh
	// ones; a reshare to 3:7 signs with 1..4, then mixes in the stale 1.
	dealtSign := []string{ok1, ok2, ok3, verified}
	dkgSign := []string{ok1, ok2, ok4, verified}
	dealtStale := []string{stale1, ok2, ok3, staleRef, corrupt + "[1 2 3])"}
	dkgStale := []string{stale1, ok2, ok4, staleRef, corrupt + "[1 2 4])"}
	resharedSign := []string{ok1, ok2, ok3, ok4, quorum, stale1, ok2, ok3, ok4, staleRes, corrupt + "[1 2 3 4])"}
	cat := func(parts ...[]string) (out []string) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name string
		args string
		want []string
	}{
		{"sim dealt refresh", "-scheme sim -refresh",
			cat(dealtSign, []string{refresh, epoch01}, dealtStale)},
		{"sim dealt reshare", "-scheme sim -reshare 3:7",
			cat(dealtSign, []string{reshare, epoch01}, resharedSign)},
		{"sim dkg refresh", "-scheme sim " + dkg + " -refresh",
			cat([]string{blamed, silent}, dkgSign, []string{refresh, epoch01}, dkgStale)},
		{"sim dkg reshare", "-scheme sim " + dkg + " -reshare 3:7",
			cat([]string{blamed, silent}, dkgSign, []string{reshare, epoch01}, resharedSign)},
		{"sim dkg refresh then reshare", "-scheme sim " + dkg + " -refresh -reshare 3:7",
			cat([]string{blamed, silent}, dkgSign, []string{refresh, epoch01}, dkgStale, []string{reshare, epoch12}, resharedSign)},
		{"rsa dkg refresh then reshare", "-scheme rsa -bits 512 " + dkg + " -refresh -reshare 3:7",
			cat([]string{blamed, silent}, dkgSign, []string{refresh, epoch01}, dkgStale, []string{reshare, epoch12}, resharedSign)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(strings.Fields(c.args), &out); err != nil {
				t.Fatalf("ickeys %s: %v\n%s", c.args, err, out.String())
			}
			lines := strings.Split(out.String(), "\n")
			for i := range lines {
				lines[i] = strings.TrimSpace(lines[i])
			}
			// The wanted lines appear in order.
			at := 0
			for _, w := range c.want {
				for at < len(lines) && lines[at] != w {
					at++
				}
				if at == len(lines) {
					t.Fatalf("ickeys %s: no line %q after the earlier wanted lines in\n%s", c.args, w, out.String())
				}
				at++
			}
		})
	}
}
