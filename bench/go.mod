module treeaa/bench

go 1.22

require treeaa v0.0.0

replace treeaa => ../
