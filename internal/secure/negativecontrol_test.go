package secure

import (
	"testing"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/gf"
	"mobilecongest/internal/graph"
)

// TestNegativeControlKeyRecoveryAttack proves the security tests are not
// vacuous: an adversary that watches one edge during the *entire* key phase
// (violating the R(e) <= t condition) can derive that edge's keys itself and
// decrypt every phase-2 message on it, recovering input-dependent plaintext.
// This is exactly the attack the (t,k)-resilience threshold rules out for
// compliant schedules.
func TestNegativeControlKeyRecoveryAttack(t *testing.T) {
	g := graph.Path(3) // 0-1-2; watch edge (0,1)
	r := 3
	tSlack := 2
	ell := r + tSlack
	watch := graph.NewEdge(0, 1)
	eve := adversary.NewScheduledEavesdropper(g, [][]graph.Edge{{watch}})
	secret := uint64(0xABCD)
	inputs := make([][]byte, 3)
	inputs[0] = congest.PutU64(nil, secret)
	_, err := congest.Run(congest.Config{Graph: g, Seed: 11, Inputs: inputs, Adversary: eve},
		StaticToMobile(algorithms.BroadcastInput(0, r), r, tSlack))
	if err != nil {
		t.Fatal(err)
	}

	// Adversary-side reconstruction: collect the phase-1 stream 0->1, run
	// the same extractor, and decrypt the phase-2 messages 0->1.
	var streamFwd []gf.Elem
	var phase2Fwd []congest.Msg
	for _, o := range eve.View() {
		if o.Edge.From != 0 || o.Edge.To != 1 {
			continue
		}
		if o.Round < ell {
			for i := 0; i < wordSymbols; i++ {
				streamFwd = append(streamFwd, gf.Elem(o.Data[2*i])<<8|gf.Elem(o.Data[2*i+1]))
			}
		} else {
			phase2Fwd = append(phase2Fwd, o.Data)
		}
	}
	if len(streamFwd) != ell*wordSymbols || len(phase2Fwd) == 0 {
		t.Fatalf("view incomplete: %d key symbols, %d phase-2 messages", len(streamFwd), len(phase2Fwd))
	}
	streams := [][]gf.Elem{streamFwd}
	sendKeys, _ := newKeyExtractor(ell, r, "negative control").keys(new(congest.Memo), &keyPhase{sent: streams, recv: streams})
	pool := sendKeys[0]
	// Decrypt round-0's message 0->1: BroadcastInput sends the secret.
	plain := padInto(nil, phase2Fwd[0], pool.Key(0))
	if congest.U64(plain) != secret {
		t.Fatalf("attack failed: decrypted %x, want %x — the negative control must leak", congest.U64(plain), secret)
	}
}

// TestColorRingThroughSecureCompiler: integration of a nontrivial payload
// (Cole-Vishkin 3-coloring) with the Theorem 1.2 compiler under a compliant
// mobile eavesdropper — output must stay a proper colouring.
func TestColorRingThroughSecureCompiler(t *testing.T) {
	n := 12
	g := graph.Cycle(n)
	r := algorithms.ColorRingRounds(n)
	eve := adversary.NewMobileEavesdropper(g, 1, 13)
	res, err := congest.Run(congest.Config{Graph: g, Seed: 12, Adversary: eve},
		StaticToMobile(algorithms.ColorRing(algorithms.ColorRingIterations(n)), r, 2*r))
	if err != nil {
		t.Fatal(err)
	}
	if !algorithms.VerifyRingColoring(g, res.Outputs) {
		t.Fatal("compiled Cole-Vishkin produced an improper colouring")
	}
}
