package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// BlackholePreset reproduces the repo's classic black-hole adversary
// (Fig. 7): n always-on black holes picked from the fabric's attacker
// order. n = 0 yields a clean campaign.
func BlackholePreset(n int) Campaign {
	c := Campaign{Name: fmt.Sprintf("blackhole-%d", n)}
	if n > 0 {
		c.Entries = []Entry{{Fault: Blackhole, Targets: Selector{Count: n}}}
	}
	return c
}

// GrayholePreset reproduces the gray-hole adversary formerly hardcoded in
// the AODV tests: n nodes that misbehave with probability p per
// opportunity.
func GrayholePreset(n int, p float64) Campaign {
	c := Campaign{Name: fmt.Sprintf("grayhole-%d-p%g", n, p)}
	if n > 0 {
		c.Entries = []Entry{{Fault: Grayhole, Params: Params{P: p}, Targets: Selector{Count: n}}}
	}
	return c
}

// ChurnPreset crashes n nodes periodically: down for the first dn seconds
// of every cycle seconds, forever.
func ChurnPreset(n int, cycle, dn float64) Campaign {
	return Campaign{
		Name: fmt.Sprintf("churn-%d", n),
		Entries: []Entry{{
			Fault:    Crash,
			Targets:  Selector{Count: n},
			Schedule: Window{Every: cycle, For: dn},
		}},
	}
}

// CorruptPreset makes n nodes flip one bit in a fraction p of their
// outgoing signature-bearing messages (and, via the fabric's Mutate hook,
// application payloads).
func CorruptPreset(n int, p float64) Campaign {
	return Campaign{
		Name: fmt.Sprintf("corrupt-%d-p%g", n, p),
		Entries: []Entry{{
			Fault:   Corrupt,
			Params:  Params{P: p},
			Targets: Selector{Count: n},
		}},
	}
}

// SpoofPreset makes n nodes forge STS beacons impersonating random
// victims.
func SpoofPreset(n int) Campaign {
	return Campaign{
		Name:    fmt.Sprintf("spoof-%d", n),
		Entries: []Entry{{Fault: Spoof, Targets: Selector{Count: n}}},
	}
}

// ByzantinePreset makes n nodes corrupt the partial signatures in their
// voting acks.
func ByzantinePreset(n int) Campaign {
	return Campaign{
		Name:    fmt.Sprintf("byzantine-%d", n),
		Entries: []Entry{{Fault: Byzantine, Targets: Selector{Count: n}}},
	}
}

// DropPreset makes n nodes lose a fraction p of their outgoing messages.
func DropPreset(n int, p float64) Campaign {
	return Campaign{
		Name:    fmt.Sprintf("drop-%d-p%g", n, p),
		Entries: []Entry{{Fault: Drop, Params: Params{P: p}, Targets: Selector{Count: n}}},
	}
}

// ParsePreset builds a preset campaign from a colon-separated spec, the
// `icsweep campaign -preset` shorthand:
//
//	clean
//	blackhole:N      grayhole:N:P    drop:N:P    corrupt:N:P
//	spoof:N          byzantine:N     churn:N:EVERY:FOR
func ParsePreset(spec string) (Campaign, error) {
	parts := strings.Split(spec, ":")
	bad := func() (Campaign, error) {
		return Campaign{}, fmt.Errorf("faults: bad preset spec %q", spec)
	}
	argN := func(i int) (int, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("faults: preset %q: missing argument %d", spec, i)
		}
		return strconv.Atoi(parts[i])
	}
	argF := func(i int) (float64, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("faults: preset %q: missing argument %d", spec, i)
		}
		return strconv.ParseFloat(parts[i], 64)
	}
	switch parts[0] {
	case "clean":
		if len(parts) != 1 {
			return bad()
		}
		return Campaign{Name: "clean"}, nil
	case "blackhole", "spoof", "byzantine":
		if len(parts) != 2 {
			return bad()
		}
		n, err := argN(1)
		if err != nil {
			return bad()
		}
		switch parts[0] {
		case "blackhole":
			return BlackholePreset(n), nil
		case "spoof":
			return SpoofPreset(n), nil
		default:
			return ByzantinePreset(n), nil
		}
	case "grayhole", "drop", "corrupt":
		if len(parts) != 3 {
			return bad()
		}
		n, err1 := argN(1)
		p, err2 := argF(2)
		if err1 != nil || err2 != nil {
			return bad()
		}
		switch parts[0] {
		case "grayhole":
			return GrayholePreset(n, p), nil
		case "drop":
			return DropPreset(n, p), nil
		default:
			return CorruptPreset(n, p), nil
		}
	case "churn":
		if len(parts) != 4 {
			return bad()
		}
		n, err1 := argN(1)
		cycle, err2 := argF(2)
		dn, err3 := argF(3)
		if err1 != nil || err2 != nil || err3 != nil {
			return bad()
		}
		return ChurnPreset(n, cycle, dn), nil
	}
	return bad()
}
