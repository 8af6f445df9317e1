// Command ickeys is the key-lifecycle substrate of §2 as a command-line
// tool: it establishes an (L+1)-threshold signing key among n players —
// through the trusted dealer or dealerless keygen (-dkg) — produces
// partial signatures with chosen shares, checks each one, combines them,
// verifies the result, and optionally demonstrates the epoch transitions
// (proactive refresh, quorum reshare) that dynamic membership is built on.
//
// Usage:
//
//	ickeys [-scheme rsa|sim] [-bits 1024] [-l 2] [-n 5] [-signers 1,2,3] [-msg text]
//	       [-dkg] [-dkgfaults i:cheat,j:stubborn,k:silent]
//	       [-refresh] [-reshare k:n]
package main

import (
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	ic "innercircle"
	"innercircle/internal/cliutil"
)

// parseDKGFaults decodes "3:stubborn,5:silent" into the scripted-fault
// map DKG takes (1-based participant indices).
func parseDKGFaults(spec string, n int) (map[int]ic.DKGFault, error) {
	out := make(map[int]ic.DKGFault)
	for _, part := range cliutil.SplitCSV(spec) {
		idxStr, name, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad dkg fault %q (want index:behaviour)", part)
		}
		i, err := strconv.Atoi(strings.TrimSpace(idxStr))
		if err != nil || i < 1 || i > n {
			return nil, fmt.Errorf("bad dkg fault index %q", idxStr)
		}
		switch strings.TrimSpace(name) {
		case "cheat":
			out[i] = ic.DKGCheatThenReveal
		case "stubborn":
			out[i] = ic.DKGCheatStubborn
		case "silent":
			out[i] = ic.DKGSilent
		default:
			return nil, fmt.Errorf("unknown dkg behaviour %q (want cheat, stubborn or silent)", name)
		}
	}
	return out, nil
}

// parseKN decodes a "k:n" reshare target.
func parseKN(spec string) (k, n int, err error) {
	kStr, nStr, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad reshare target %q (want k:n)", spec)
	}
	if k, err = strconv.Atoi(strings.TrimSpace(kStr)); err != nil || k < 1 {
		return 0, 0, fmt.Errorf("bad reshare threshold %q", kStr)
	}
	if n, err = strconv.Atoi(strings.TrimSpace(nStr)); err != nil || n < k+1 {
		return 0, 0, fmt.Errorf("bad reshare player count %q (need n >= k+1)", nStr)
	}
	return k, n, nil
}

// reportOldSignature reports the fate of the signature combined before an
// epoch transition, which depends on the scheme: the RSA public key
// survives a refresh or reshare, so old traffic stays checkable; the sim
// scheme's share keys are its verification state, so its old signatures
// expire with the epoch.
func reportOldSignature(stdout io.Writer, scheme string, gk ic.GroupKey, msg []byte, sig ic.Signature) error {
	switch err := gk.Verify(msg, sig); scheme {
	case "rsa":
		if err != nil {
			return fmt.Errorf("pre-transition signature invalidated: %w", err)
		}
		fmt.Fprintln(stdout, "the earlier combined signature still verifies (old traffic stays checkable)")
	default:
		if err == nil {
			return fmt.Errorf("sim signature unexpectedly survived the epoch bump")
		}
		fmt.Fprintln(stdout, "the earlier combined signature expired with the epoch (sim keys are the verification state)")
	}
	return nil
}

// checkPartials runs every partial through the group key's own check —
// the check a center applies to each ack before it combines — and prints
// each verdict.
func checkPartials(stdout io.Writer, gk ic.GroupKey, msg []byte, parts []ic.Partial) {
	for _, p := range parts {
		verdict := "verifies"
		if !gk.VerifyPartial(msg, p) {
			verdict = "REJECTED"
		}
		fmt.Fprintf(stdout, "  check: partial %d %s\n", p.Index, verdict)
	}
}

// run parses args (without the program name) and writes the walkthrough
// to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ickeys", flag.ExitOnError)
	var (
		scheme    = fs.String("scheme", "rsa", "signature scheme: rsa (Shoup threshold RSA) or sim (keyed MAC)")
		bits      = fs.Int("bits", 1024, "RSA modulus size")
		level     = fs.Int("l", 2, "dependability level L (L+1 partials combine)")
		n         = fs.Int("n", 5, "number of players")
		signers   = fs.String("signers", "", "comma-separated 1-based share indices (default: first L+1 holding a share)")
		msg       = fs.String("msg", "agreed value v", "message to sign")
		dkg       = fs.Bool("dkg", false, "establish the key with dealerless keygen instead of the trusted dealer")
		dkgFaults = fs.String("dkgfaults", "", "scripted DKG misbehaviour, e.g. 3:stubborn,5:silent (with -dkg)")
		refresh   = fs.Bool("refresh", false, "demonstrate proactive share refresh after signing")
		reshareKN = fs.String("reshare", "", "demonstrate a quorum reshare to k:n after signing, e.g. 3:7")
		prof      = cliutil.AddProfileFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer stop()

	var dealer ic.Dealer
	switch *scheme {
	case "rsa":
		dealer = ic.NewRSADealer(*bits, rand.Reader) // real keys want real entropy
	case "sim":
		dealer = ic.NewSimDealer([]byte("ickeys-demo"), *bits/8)
	default:
		return fmt.Errorf("unknown scheme %q", *scheme)
	}

	var gk ic.GroupKey
	var shares []ic.Signer
	if *dkg {
		faults, err := parseDKGFaults(*dkgFaults, *n)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "dealerless keygen of K_%d with threshold %d among %d players (%s)...\n", *level, *level, *n, *scheme)
		res, err := dealer.DKG(ic.DKGConfig{K: *level, N: *n, Faults: faults})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "qualification: %d complaints exchanged\n", res.Complaints)
		for _, b := range res.Blamed {
			fmt.Fprintf(stdout, "  player %d blamed with proof (opening contradicts commitment) and excluded\n", b)
		}
		for _, s := range res.Silent {
			fmt.Fprintf(stdout, "  player %d never dealt — excluded without proof (crash-indistinguishable)\n", s)
		}
		gk, shares = res.Key, res.Signers
	} else {
		fmt.Fprintf(stdout, "dealing K_%d with threshold %d among %d players (%s)...\n", *level, *level, *n, *scheme)
		gk, shares, err = dealer.Deal(*level, *n)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "group key: %d+1 partials required, %d-byte signatures\n", gk.Threshold(), gk.SigBytes())

	var idx []int
	if *signers == "" {
		for i := 1; i <= *n && len(idx) < *level+1; i++ {
			if shares[i-1] != nil {
				idx = append(idx, i)
			}
		}
	} else {
		for _, p := range strings.Split(*signers, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v < 1 || v > *n {
				return fmt.Errorf("bad signer index %q", p)
			}
			if shares[v-1] == nil {
				return fmt.Errorf("player %d holds no share (excluded during keygen)", v)
			}
			idx = append(idx, v)
		}
	}

	var partials []ic.Partial
	for _, i := range idx {
		p, err := shares[i-1].PartialSign([]byte(*msg))
		if err != nil {
			return err
		}
		partials = append(partials, p)
		fmt.Fprintf(stdout, "partial from share %d: %s...\n", i, hex.EncodeToString(p.Data[:min(8, len(p.Data))]))
	}

	checkPartials(stdout, gk, []byte(*msg), partials)
	sig, err := gk.Combine([]byte(*msg), partials)
	if err != nil {
		fmt.Fprintf(stdout, "combine failed (as expected with < %d partials): %v\n", gk.Threshold()+1, err)
		return nil
	}
	fmt.Fprintf(stdout, "combined signature (%d bytes): %s...\n", len(sig.Data), hex.EncodeToString(sig.Data[:min(16, len(sig.Data))]))
	if err := gk.Verify([]byte(*msg), sig); err != nil {
		return fmt.Errorf("verification failed: %w", err)
	}
	fmt.Fprintln(stdout, "verification: OK — any recipient can now check that", gk.Threshold()+1, "players co-signed")

	if *refresh {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "proactive refresh: re-randomizing every share...")
		// Only share holders refresh: players excluded during keygen hold
		// none.
		var holders []int
		var old []ic.Signer
		for i, s := range shares {
			if s != nil {
				holders = append(holders, i)
				old = append(old, s)
			}
		}
		oldEpoch := gk.Epoch()
		rotated, err := dealer.Refresh(gk, old)
		if err != nil {
			return err
		}
		fresh := make([]ic.Signer, len(shares))
		for j, i := range holders {
			fresh[i] = rotated[j]
		}
		fmt.Fprintf(stdout, "key epoch %d -> %d; public key unchanged\n", oldEpoch, gk.Epoch())
		if err := reportOldSignature(stdout, *scheme, gk, []byte(*msg), sig); err != nil {
			return err
		}
		stale := partials[0]
		freshParts := []ic.Partial{stale}
		for i := 1; i <= *level; i++ {
			p, err := fresh[idx[i]-1].PartialSign([]byte(*msg))
			if err != nil {
				return err
			}
			freshParts = append(freshParts, p)
		}
		checkPartials(stdout, gk, []byte(*msg), freshParts)
		if _, err := gk.Combine([]byte(*msg), freshParts); err != nil {
			fmt.Fprintln(stdout, "a stale (pre-refresh) share no longer combines with fresh ones:")
			fmt.Fprintln(stdout, " ", err)
		} else {
			return fmt.Errorf("cross-epoch combination unexpectedly succeeded")
		}
	}

	if *reshareKN != "" {
		newK, newN, err := parseKN(*reshareKN)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "quorum reshare: moving the key to threshold %d among %d players...\n", newK, newN)
		oldEpoch := gk.Epoch()
		newShares, err := dealer.Reshare(gk, newK, newN)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "key epoch %d -> %d; public key unchanged\n", oldEpoch, gk.Epoch())
		if err := reportOldSignature(stdout, *scheme, gk, []byte(*msg), sig); err != nil {
			return err
		}
		var fresh []ic.Partial
		for i := 0; i <= newK; i++ {
			p, err := newShares[i].PartialSign([]byte(*msg))
			if err != nil {
				return err
			}
			fresh = append(fresh, p)
		}
		checkPartials(stdout, gk, []byte(*msg), fresh)
		sig2, err := gk.Combine([]byte(*msg), fresh)
		if err != nil {
			return fmt.Errorf("fresh quorum failed to sign after reshare: %w", err)
		}
		if err := gk.Verify([]byte(*msg), sig2); err != nil {
			return fmt.Errorf("post-reshare signature invalid: %w", err)
		}
		fmt.Fprintf(stdout, "fresh %d+1 quorum signs under the same public key: OK\n", newK)
		mixed := append([]ic.Partial{partials[0]}, fresh[1:]...)
		checkPartials(stdout, gk, []byte(*msg), mixed)
		if _, err := gk.Combine([]byte(*msg), mixed); err != nil {
			fmt.Fprintln(stdout, "a stale (pre-reshare) share does not combine with the new layout:")
			fmt.Fprintln(stdout, " ", err)
		} else {
			return fmt.Errorf("cross-epoch combination unexpectedly succeeded")
		}
	}
	return nil
}

func main() {
	cliutil.Main("ickeys", func() error { return run(os.Args[1:], os.Stdout) })
}
