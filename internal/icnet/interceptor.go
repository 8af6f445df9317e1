package icnet

import (
	"innercircle/internal/link"
)

// Template matches application messages that require inner-circle checking.
// The architecture intercepts selectively: only registered templates are
// redirected (§4, "the architecture enables selective use of the
// inner-circle approach").
type Template func(link.Env) bool

// Verifier validates the signature of an incoming message that claims
// inner-circle agreement. Returning false suppresses the message.
type Verifier func(link.Env) (claims bool, valid bool)

// Interceptor is the Inner-circle Interceptor of Fig. 1, realized as a
// link.Filter. Outgoing messages matching a registered template are
// redirected into the voting service (and swallowed). An incoming message
// that matches a template or claims inner-circle agreement is suppressed
// when it originates from a suspected node or carries no valid agreement:
// a template match that the verifier does not claim is as unsigned as a
// claim with a bad signature.
type Interceptor struct {
	susp      *SuspicionManager
	templates []templateEntry
	verify    Verifier

	// Stats counts interceptor decisions.
	Stats InterceptStats
}

type templateEntry struct {
	match    Template
	redirect func(link.Env)
}

// InterceptStats counts interceptor activity.
type InterceptStats struct {
	Redirected        uint64
	SuppressedSuspect uint64
	SuppressedBadSig  uint64
}

var _ link.Filter = (*Interceptor)(nil)

// NewInterceptor returns an interceptor consulting susp for the suspected
// list. susp may be nil (no suspicion-based suppression).
func NewInterceptor(susp *SuspicionManager) *Interceptor {
	return &Interceptor{susp: susp}
}

// Register adds a message template; matching outgoing messages are passed
// to redirect instead of the radio.
func (ic *Interceptor) Register(match Template, redirect func(link.Env)) {
	ic.templates = append(ic.templates, templateEntry{match: match, redirect: redirect})
}

// SetVerifier installs the signature check applied to incoming messages
// (supplied by the voting service).
func (ic *Interceptor) SetVerifier(v Verifier) { ic.verify = v }

// match returns the first registered template e matches, or nil.
func (ic *Interceptor) match(e link.Env) *templateEntry {
	for i := range ic.templates {
		if ic.templates[i].match(e) {
			return &ic.templates[i]
		}
	}
	return nil
}

// Outbound implements link.Filter: redirect template matches to the
// inner-circle services.
func (ic *Interceptor) Outbound(e link.Env) bool {
	t := ic.match(e)
	if t == nil {
		return true
	}
	ic.Stats.Redirected++
	t.redirect(e)
	return false
}

// Inbound implements link.Filter. Per §4, suppression applies to the
// *template-matched* incoming messages (the application messages subject
// to inner-circle checking) and to messages claiming inner-circle
// agreement. Either kind is dropped when the sender is suspected or the
// message carries no valid agreement; a template match the verifier does
// not claim carries none, since a correct node's interceptor redirects
// every such message into a vote and only the agreed result travels.
// Other traffic — beacons, voting protocol messages, data — passes
// through untouched.
func (ic *Interceptor) Inbound(e link.Env) bool {
	claims, valid := false, false
	if ic.verify != nil {
		claims, valid = ic.verify(e)
	}
	if !claims && ic.match(e) == nil {
		return true
	}
	if ic.susp != nil && ic.susp.Suspected(e.From) {
		ic.Stats.SuppressedSuspect++
		return false
	}
	if !valid {
		ic.Stats.SuppressedBadSig++
		if ic.susp != nil {
			// A message that required inner-circle protection but carries
			// no valid signature is provable evidence: correct nodes'
			// interceptors never emit one.
			ic.susp.SuspectPermanent(e.From, "invalid inner-circle signature")
		}
		return false
	}
	return true
}
