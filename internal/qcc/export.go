package qcc

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

	"etsn/internal/model"
)

// SlotExport is one scheduled frame slot in the export document.
type SlotExport struct {
	Stream   string `json:"stream"`
	Index    int    `json:"index"`
	OffsetUs int64  `json:"offset_us"`
	LengthUs int64  `json:"length_us"`
	PeriodUs int64  `json:"period_us"`
	Epoch    int64  `json:"epoch,omitempty"`
	Priority int    `json:"priority"`
	Shared   bool   `json:"shared,omitempty"`
	Reserve  bool   `json:"reserve,omitempty"`
	Prob     bool   `json:"prob,omitempty"`
}

// LinkScheduleExport is the slot table of one directed link.
type LinkScheduleExport struct {
	Link  string       `json:"link"`
	Slots []SlotExport `json:"slots"`
}

// GCLEntryExport is one gate-control entry.
type GCLEntryExport struct {
	DurationNs int64 `json:"duration_ns"`
	// Gates is the open-gate bitmask (bit i = priority i).
	Gates uint8 `json:"gates"`
}

// PortGCLExport is one port's complete gate program.
type PortGCLExport struct {
	Link    string           `json:"link"`
	CycleNs int64            `json:"cycle_ns"`
	Entries []GCLEntryExport `json:"entries"`
}

// SolverExport is the SMT backend's cumulative search effort, present when
// an SMT backend produced the schedule (the placer leaves it out).
type SolverExport struct {
	Solves           int64 `json:"solves"`
	Decisions        int64 `json:"decisions"`
	Propagations     int64 `json:"propagations"`
	Conflicts        int64 `json:"conflicts"`
	TheoryChecks     int64 `json:"theory_checks"`
	Restarts         int64 `json:"restarts,omitempty"`
	Learned          int64 `json:"learned,omitempty"`
	TheoryProps      int64 `json:"theory_props,omitempty"`
	MaxDecisionLevel int64 `json:"max_decision_level,omitempty"`
}

// DeploymentExport is the JSON form of a CNC deployment.
type DeploymentExport struct {
	HyperperiodUs int64                `json:"hyperperiod_us"`
	Backend       string               `json:"backend"`
	Solver        *SolverExport        `json:"solver,omitempty"`
	Schedule      []LinkScheduleExport `json:"schedule"`
	GCLs          []PortGCLExport      `json:"gcls"`
}

// Export converts the deployment to its serializable form.
func (d *Deployment) Export() *DeploymentExport {
	out := &DeploymentExport{
		HyperperiodUs: int64(d.Result.Schedule.Hyperperiod.Microseconds()),
		Backend:       d.Result.BackendUsed.String(),
	}
	if st := d.Result.SolverStats; st.Solves > 0 {
		out.Solver = &SolverExport{
			Solves:           st.Solves,
			Decisions:        st.Decisions,
			Propagations:     st.Propagations,
			Conflicts:        st.Conflicts,
			TheoryChecks:     st.TheoryChecks,
			Restarts:         st.Restarts,
			Learned:          st.Learned,
			TheoryProps:      st.TheoryProps,
			MaxDecisionLevel: st.MaxDecisionLevel,
		}
	}
	for _, lid := range d.Result.Schedule.Links() {
		ls := LinkScheduleExport{Link: lid.String()}
		for _, fs := range d.Result.Schedule.SlotsOn(lid) {
			ls.Slots = append(ls.Slots, SlotExport{
				Stream:   string(fs.Stream),
				Index:    fs.Index,
				OffsetUs: fs.Offset,
				LengthUs: fs.Length,
				PeriodUs: fs.Period,
				Epoch:    fs.Epoch,
				Priority: fs.Priority,
				Shared:   fs.Shared,
				Reserve:  fs.Reserve,
				Prob:     fs.Prob,
			})
		}
		out.Schedule = append(out.Schedule, ls)
	}
	for _, lid := range d.gclLinks() {
		g := d.GCLs[lid]
		pe := PortGCLExport{Link: lid.String(), CycleNs: int64(g.Cycle)}
		for _, e := range g.Entries {
			pe.Entries = append(pe.Entries, GCLEntryExport{
				DurationNs: int64(e.Duration),
				Gates:      uint8(e.Gates),
			})
		}
		out.GCLs = append(out.GCLs, pe)
	}
	return out
}

// gclLinks returns the gated links in document order.
func (d *Deployment) gclLinks() []model.LinkID {
	links := make([]model.LinkID, 0, len(d.GCLs))
	for lid := range d.GCLs {
		links = append(links, lid)
	}
	slices.SortFunc(links, func(a, b model.LinkID) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	return links
}

// AppendJSON appends the deployment's export document to dst: compact JSON,
// byte for byte what json.Marshal(d.Export()) produces (same keys, same
// omitted fields, nil slices as null, encoding/json's string escaping),
// written straight off the schedule and gate programs with no intermediate
// copy and no reflection. It is the one encoder behind etsn-sched's output,
// the daemon's journal and its plans/{v} responses; ParseDeployment reads it
// back.
func (d *Deployment) AppendJSON(dst []byte) []byte {
	sched := d.Result.Schedule
	links := sched.Links()
	// A slot object is ~105 bytes plus its stream id, a gate entry ~32.
	size := 256 + 64*(len(links)+len(d.GCLs)) + 128*sched.NumSlots()
	for _, g := range d.GCLs {
		size += 36 * len(g.Entries)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"hyperperiod_us":`...)
	dst = strconv.AppendInt(dst, sched.Hyperperiod.Microseconds(), 10)
	dst = append(dst, `,"backend":`...)
	dst = AppendJSONString(dst, d.Result.BackendUsed.String())
	if st := d.Result.SolverStats; st.Solves > 0 {
		dst = appendIntField(dst, `,"solver":{"solves":`, st.Solves)
		dst = appendIntField(dst, `,"decisions":`, st.Decisions)
		dst = appendIntField(dst, `,"propagations":`, st.Propagations)
		dst = appendIntField(dst, `,"conflicts":`, st.Conflicts)
		dst = appendIntField(dst, `,"theory_checks":`, st.TheoryChecks)
		dst = appendNonZero(dst, `,"restarts":`, st.Restarts)
		dst = appendNonZero(dst, `,"learned":`, st.Learned)
		dst = appendNonZero(dst, `,"theory_props":`, st.TheoryProps)
		dst = appendNonZero(dst, `,"max_decision_level":`, st.MaxDecisionLevel)
		dst = append(dst, '}')
	}

	dst = append(dst, `,"schedule":`...)
	if len(links) == 0 {
		dst = append(dst, "null"...)
	} else {
		for i, lid := range links {
			dst = append(dst, arraySep(i))
			dst = append(dst, `{"link":`...)
			dst = appendLinkID(dst, lid)
			dst = append(dst, `,"slots":`...)
			slots := sched.SlotsOn(lid)
			if len(slots) == 0 {
				dst = append(dst, "null}"...)
				continue
			}
			for k := range slots {
				fs := &slots[k]
				dst = append(dst, arraySep(k))
				dst = append(dst, `{"stream":`...)
				dst = AppendJSONString(dst, string(fs.Stream))
				dst = appendIntField(dst, `,"index":`, int64(fs.Index))
				dst = appendIntField(dst, `,"offset_us":`, fs.Offset)
				dst = appendIntField(dst, `,"length_us":`, fs.Length)
				dst = appendIntField(dst, `,"period_us":`, fs.Period)
				dst = appendNonZero(dst, `,"epoch":`, fs.Epoch)
				dst = appendIntField(dst, `,"priority":`, int64(fs.Priority))
				if fs.Shared {
					dst = append(dst, `,"shared":true`...)
				}
				if fs.Reserve {
					dst = append(dst, `,"reserve":true`...)
				}
				if fs.Prob {
					dst = append(dst, `,"prob":true`...)
				}
				dst = append(dst, '}')
			}
			dst = append(dst, "]}"...)
		}
		dst = append(dst, ']')
	}

	dst = append(dst, `,"gcls":`...)
	if len(d.GCLs) == 0 {
		return append(dst, "null}"...)
	}
	for i, lid := range d.gclLinks() {
		g := d.GCLs[lid]
		dst = append(dst, arraySep(i))
		dst = append(dst, `{"link":`...)
		dst = appendLinkID(dst, lid)
		dst = appendIntField(dst, `,"cycle_ns":`, int64(g.Cycle))
		dst = append(dst, `,"entries":`...)
		if len(g.Entries) == 0 {
			dst = append(dst, "null}"...)
			continue
		}
		for k, e := range g.Entries {
			dst = append(dst, arraySep(k))
			dst = appendIntField(dst, `{"duration_ns":`, int64(e.Duration))
			dst = appendIntField(dst, `,"gates":`, int64(e.Gates))
			dst = append(dst, '}')
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, "]}"...)
}

// arraySep is the byte that precedes element i of a JSON array.
func arraySep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

func appendIntField(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendNonZero is appendIntField under `omitempty`.
func appendNonZero(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return appendIntField(dst, key, v)
}

// appendLinkID appends LinkID.String() as a JSON string without building
// it; encoding/json escapes the arrow's '>'.
func appendLinkID(dst []byte, lid model.LinkID) []byte {
	dst = append(dst, '"')
	dst = appendEscaped(dst, string(lid.From))
	dst = append(dst, `-\u003e`...)
	dst = appendEscaped(dst, string(lid.To))
	return append(dst, '"')
}

// AppendJSONString appends s as the JSON string json.Marshal writes for
// it: HTML-sensitive characters, control bytes and U+2028/U+2029 escaped,
// invalid UTF-8 replaced by U+FFFD.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendEscaped(dst, s)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
		}
		i++
		start = i
	}
	return append(dst, s[start:]...)
}

// WriteJSON writes the deployment export as one line of compact JSON (see
// AppendJSON); pipe it through `python3 -m json.tool` to read it.
func (d *Deployment) WriteJSON(w io.Writer) error {
	_, err := w.Write(append(d.AppendJSON(nil), '\n'))
	return err
}
