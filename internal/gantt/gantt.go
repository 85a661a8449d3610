// Package gantt renders Banger's feedback displays: Gantt charts of
// schedules and traces, and speedup-prediction charts — the textual
// equivalents of the paper's Figure 3.
package gantt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/trace"
)

// bar holds one rendered interval.
type bar struct {
	label  string
	start  machine.Time
	finish machine.Time
	dup    bool
}

// Chart renders the schedule as an ASCII Gantt chart, one row per
// processor, scaled to the given width in characters (minimum 20).
func Chart(s *sched.Schedule, width int) string {
	rows := map[int][]bar{}
	for pe := 0; pe < s.Machine.NumPE(); pe++ {
		for _, sl := range s.PESlots(pe) {
			rows[pe] = append(rows[pe], bar{label: string(sl.Task), start: sl.Start, finish: sl.Finish, dup: sl.Dup})
		}
	}
	header := fmt.Sprintf("%s on %s: makespan %v, speedup %.2f",
		s.Algorithm, s.Machine.Name, s.Makespan(), s.Speedup())
	return render(header, rows, s.Machine.NumPE(), s.Makespan(), width)
}

// FromTrace renders a trace (simulated or real) as a Gantt chart.
func FromTrace(tr *trace.Trace, numPE, width int) (string, error) {
	spans, err := tr.Spans()
	if err != nil {
		return "", err
	}
	rows := map[int][]bar{}
	for pe, ss := range spans {
		for _, sp := range ss {
			rows[pe] = append(rows[pe], bar{label: string(sp.Task), start: sp.Start, finish: sp.Finish, dup: sp.Dup})
		}
	}
	header := fmt.Sprintf("%s: makespan %v", tr.Label, tr.Makespan())
	return render(header, rows, numPE, tr.Makespan(), width), nil
}

// render lays out bars on a character grid. Bars show as [label####];
// duplicates as [+label###]; idle time as '.'.
func render(header string, rows map[int][]bar, numPE int, makespan machine.Time, width int) string {
	if width < 20 {
		width = 20
	}
	var b strings.Builder
	b.WriteString(header)
	b.WriteByte('\n')
	if makespan == 0 {
		b.WriteString("  (empty schedule)\n")
		return b.String()
	}
	scale := func(t machine.Time) int {
		c := int(int64(t) * int64(width) / int64(makespan))
		if c > width {
			c = width
		}
		return c
	}
	for pe := 0; pe < numPE; pe++ {
		line := make([]rune, width)
		for i := range line {
			line[i] = '.'
		}
		bars := rows[pe]
		sort.Slice(bars, func(i, j int) bool { return bars[i].start < bars[j].start })
		for _, bar := range bars {
			lo, hi := scale(bar.start), scale(bar.finish)
			if hi <= lo {
				hi = lo + 1
				if hi > width {
					lo, hi = width-1, width
				}
			}
			label := bar.label
			if bar.dup {
				label = "+" + label
			}
			// Fill the cell in place: "[label###]" truncated to the
			// cell, or bare '#'s when too narrow for brackets.
			cell := hi - lo
			if cell < 3 {
				for i := lo; i < hi; i++ {
					line[i] = '#'
				}
				continue
			}
			line[lo], line[hi-1] = '[', ']'
			lr := []rune(label)
			for i := 1; i < cell-1; i++ {
				if i-1 < len(lr) {
					line[lo+i] = lr[i-1]
				} else {
					line[lo+i] = '#'
				}
			}
		}
		fmt.Fprintf(&b, "  PE%-2d |%s|\n", pe, string(line))
	}
	// Time axis.
	fmt.Fprintf(&b, "       %s\n", axis(makespan, width))
	return b.String()
}

// axis renders a tick ruler 0..makespan.
func axis(makespan machine.Time, width int) string {
	line := []rune(strings.Repeat("-", width+2))
	line[0], line[len(line)-1] = '0', '>'
	mid := fmt.Sprintf("%v", makespan/2)
	end := fmt.Sprintf("%v", makespan)
	copy(line[width/2:], []rune(mid))
	if width-len(end) > 0 {
		copy(line[width-len(end):], []rune(end))
	}
	return string(line)
}

// Speedup renders the paper's speedup-prediction chart (Figure 3,
// right): predicted speedup versus processor count, with the ideal
// linear speedup marked by '·' for reference.
func Speedup(pts []sched.SpeedupPoint, height int) string {
	if len(pts) == 0 {
		return "(no points)\n"
	}
	if height < 4 {
		height = 4
	}
	maxY := 1.0
	for _, p := range pts {
		if p.Speedup > maxY {
			maxY = p.Speedup
		}
		if float64(p.PEs) > maxY {
			maxY = float64(p.PEs)
		}
	}
	var b strings.Builder
	b.WriteString("speedup vs processors ('*' predicted, '·' ideal)\n")
	colW := 7
	for row := height; row >= 1; row-- {
		yLo := maxY * float64(row-1) / float64(height)
		yHi := maxY * float64(row) / float64(height)
		fmt.Fprintf(&b, "%6.2f |", yHi)
		for _, p := range pts {
			cell := strings.Repeat(" ", colW)
			ideal := float64(p.PEs)
			mark := ' '
			if ideal > yLo && ideal <= yHi {
				mark = '·'
			}
			if p.Speedup > yLo && p.Speedup <= yHi {
				mark = '*'
			}
			cell = strings.Repeat(" ", colW/2) + string(mark) + strings.Repeat(" ", colW-colW/2-1)
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	b.WriteString("       +")
	b.WriteString(strings.Repeat("-", colW*len(pts)))
	b.WriteByte('\n')
	b.WriteString("        ")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-*s", colW, fmt.Sprintf("%d PE", p.PEs))
	}
	b.WriteByte('\n')
	for _, p := range pts {
		fmt.Fprintf(&b, "        %d PEs: makespan %-8v speedup %.2f\n", p.PEs, p.Makespan, p.Speedup)
	}
	return b.String()
}

// CSV exports the schedule's slots as comma-separated rows with a
// header, for external plotting.
func CSV(s *sched.Schedule) string {
	var b strings.Builder
	b.WriteString("task,pe,start_us,finish_us,dup\n")
	slots := append([]sched.Slot(nil), s.Slots...)
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].Start != slots[j].Start {
			return slots[i].Start < slots[j].Start
		}
		return slots[i].Task < slots[j].Task
	})
	for _, sl := range slots {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%t\n", sl.Task, sl.PE, int64(sl.Start), int64(sl.Finish), sl.Dup)
	}
	return b.String()
}

// svgPalette cycles bar fill colours per task hash.
var svgPalette = []string{"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7"}

// SVG renders the schedule as a standalone SVG Gantt chart.
func SVG(s *sched.Schedule) string {
	const (
		rowH    = 28
		leftPad = 60
		topPad  = 40
		pxWidth = 800
	)
	mk := s.Makespan()
	if mk == 0 {
		mk = 1
	}
	n := s.Machine.NumPE()
	h := topPad + n*rowH + 30
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">`+"\n", pxWidth+leftPad+20, h)
	fmt.Fprintf(&b, `<text x="10" y="20" font-family="monospace" font-size="14">%s on %s — makespan %v</text>`+"\n",
		s.Algorithm, s.Machine.Name, s.Makespan())
	x := func(t machine.Time) float64 { return float64(leftPad) + float64(t)/float64(mk)*pxWidth }
	colorOf := func(task string) string {
		sum := 0
		for _, c := range task {
			sum += int(c)
		}
		return svgPalette[sum%len(svgPalette)]
	}
	for pe := 0; pe < n; pe++ {
		y := topPad + pe*rowH
		fmt.Fprintf(&b, `<text x="10" y="%d" font-family="monospace" font-size="12">PE%d</text>`+"\n", y+rowH/2+4, pe)
		for _, sl := range s.PESlots(pe) {
			w := x(sl.Finish) - x(sl.Start)
			if w < 1 {
				w = 1
			}
			stroke := "none"
			dash := ""
			if sl.Dup {
				stroke = "black"
				dash = ` stroke-dasharray="3,2"`
			}
			fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" stroke="%s"%s/>`+"\n",
				x(sl.Start), y+2, w, rowH-6, colorOf(string(sl.Task)), stroke, dash)
			fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="monospace" font-size="10">%s</text>`+"\n",
				x(sl.Start)+2, y+rowH/2+3, sl.Task)
		}
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="monospace" font-size="11">0</text>`+"\n", leftPad, h-8)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="monospace" font-size="11">%v</text>`+"\n", leftPad+pxWidth-30, h-8, s.Makespan())
	b.WriteString("</svg>\n")
	return b.String()
}
