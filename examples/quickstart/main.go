// Quickstart: build a four-task design from scratch, schedule it on a
// two-processor machine, draw the Gantt chart, and run it for real.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	banger "repro"
)

// buildDesign is steps 1 and 2: the dataflow graph, then a calculator
// routine per task.
func buildDesign() *banger.Graph {
	// Step 1 — programming-in-the-large: a diamond dataflow graph.
	//
	//	[x0] -> (double) -> (inc), (tens) -> (combine) -> [y]
	g := banger.NewGraph("quickstart")
	g.MustAddStorage("X0", "x0") // external input cell
	double := g.MustAddTask("double", "u = 2*x0", 10)
	inc := g.MustAddTask("inc", "v = u+1", 10)
	tens := g.MustAddTask("tens", "w = u*10", 10)
	combine := g.MustAddTask("combine", "y = v+w", 10)
	g.MustAddStorage("Y", "y") // external output cell

	g.MustConnect("X0", "double", "x0", 1)
	g.MustConnect("double", "inc", "u", 1)
	g.MustConnect("double", "tens", "u", 1)
	g.MustConnect("inc", "combine", "v", 1)
	g.MustConnect("tens", "combine", "w", 1)
	g.MustConnect("combine", "Y", "y", 1)

	// Step 2 — programming-in-the-small: one calculator routine per task.
	double.Routine = "u = 2 * x0"
	inc.Routine = "v = u + 1"
	tens.Routine = "w = u * 10"
	combine.Routine = "y = v + w"
	return g
}

func main() {
	g := buildDesign()

	// Step 3 — a target machine: two fully connected processors.
	m, err := banger.NewMachine("pair", "full:2", banger.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}

	// Step 4 — open the project, schedule, inspect, run.
	env, err := banger.Open(&banger.Project{
		Name: "quickstart", Design: g, Machine: m,
		Inputs: banger.Env{"x0": banger.Num(3)},
	})
	if err != nil {
		log.Fatal(err)
	}
	sc, err := env.Schedule("etf")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(banger.GanttChart(sc, 64))

	res, err := env.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ny = %s  (2*3+1 + 2*3*10 = 67)\n", res.Outputs["y"])
	fmt.Printf("ran in %v across %d goroutine processors\n", res.Elapsed, sc.Machine.NumPE())
}
