package rete

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sym"
)

// Dump writes a human-readable description of the compiled network:
// the constant-test chains per class, each alpha memory with its
// successors, the two-input nodes with their join tests, and the
// terminals — the topology Figure 2-2 of the paper draws.
func (p *Plan) Dump(w io.Writer) {
	classes := make([]string, 0, len(p.roots))
	byName := make(map[string]sym.ID, len(p.roots))
	for c := range p.roots {
		name := sym.Name(c)
		classes = append(classes, name)
		byName[name] = c
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "rete network: %d const nodes, %d alpha memories, %d two-input nodes, %d beta memories, %d terminals\n",
		p.Counts().ConstNodes, len(p.Alphas), len(p.Joins), len(p.Betas), len(p.Terminals))

	for _, class := range classes {
		fmt.Fprintf(w, "class %s:\n", class)
		var visit func(c *ConstNode, depth int)
		visit = func(c *ConstNode, depth int) {
			indent := strings.Repeat("  ", depth+1)
			label := c.Test.String()
			if c.Test.Kind == ctAlways {
				label = "(root)"
			}
			fmt.Fprintf(w, "%s#%d %s", indent, c.ID, label)
			if c.SharedBy > 1 {
				fmt.Fprintf(w, " [shared x%d]", c.SharedBy)
			}
			if c.Mem != nil {
				fmt.Fprintf(w, " -> alpha#%d", c.Mem.ID)
			}
			fmt.Fprintln(w)
			for _, ch := range c.Children {
				visit(ch, depth+1)
			}
		}
		visit(p.roots[byName[class]], 0)
	}

	fmt.Fprintln(w, "two-input nodes:")
	for _, j := range p.Joins {
		kind, testStr := j.describe()
		left := "dummy-top"
		if j.Left.Index != 0 {
			left = fmt.Sprintf("beta#%d", j.Left.ID)
		}
		fmt.Fprintf(w, "  %s#%d: %s + alpha#%d %s -> beta#%d", kind, j.ID, left, j.Right.ID, testStr, j.Out.ID)
		if j.SharedBy > 1 {
			fmt.Fprintf(w, " [shared x%d]", j.SharedBy)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "terminals:")
	for _, t := range p.Terminals {
		fmt.Fprintf(w, "  term#%d: %s\n", t.ID, t.Production.Name)
	}
}
