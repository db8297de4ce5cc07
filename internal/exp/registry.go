package exp

import (
	"fmt"
	"sort"
)

// Runner produces one experiment table. Convergence experiments honor the
// options; pure-simulation experiments ignore them.
type Runner func(o ConvOptions) (*Table, error)

// Registry maps experiment ids (as used by cmd/acpbench) to runners.
func Registry() map[string]Runner {
	wrap := func(f func() (*Table, error)) Runner {
		return func(ConvOptions) (*Table, error) { return f() }
	}
	static := func(f func() *Table) Runner {
		return func(ConvOptions) (*Table, error) { return f(), nil }
	}
	return map[string]Runner{
		"table1": static(TableI),
		"table2": static(TableII),
		"fig2":   wrap(Fig2),
		"fig3":   wrap(Fig3),
		"fig5":   static(Fig5),
		"fig6":   Fig6,
		"fig7":   Fig7,
		"table3": wrap(TableIII),
		"fig8":   wrap(Fig8),
		"fig9":   wrap(Fig9),
		"fig10":  wrap(Fig10),
		"fig11a": wrap(Fig11a),
		"fig11b": wrap(Fig11b),
		"fig12":  wrap(Fig12),
		"fig13":  wrap(Fig13),
		"micro":  static(MicroFusion),

		// Extensions beyond the paper: sensitivity studies
		// on the simulator's calibrated constants and real measurements of
		// the substrate on this host.
		"ablation-interference": wrap(AblationInterference),
		"ablation-alpha":        wrap(AblationAlpha),
		"ablation-selection":    wrap(AblationSelection),
		"ablation-transport":    wrap(AblationTransport),
	}
}

// Names returns the registered experiment ids in sorted order.
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for k := range reg {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, o ConvOptions) (*Table, error) {
	r, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, Names())
	}
	return r(o)
}
