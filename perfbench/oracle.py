"""Reference answers computed on a decompressed graph with networkx.

The benchmark checks the grammar's answers against these; nothing here
calls the program's query code.  Node IDs are the ones the handle
answers with, because the oracle graph is the handle's own
``decompress()``.
"""

import networkx as nx

#: RPQ patterns over one label ``L``, each with an automaton written out
#: by hand (state -> next state on ``L``, accepting states), so the
#: oracle does not depend on the program's regex compiler.
RPQ_PATTERNS = (
    ("{L} {L}", {0: 1, 1: 2}, {2}),
    ("{L} {L} {L}", {0: 1, 1: 2, 2: 3}, {3}),
    ("({L} {L})+", {0: 1, 1: 2, 2: 1}, {2}),
)


def rpq_texts(label):
    return [text.format(L=label) for text, _, _ in RPQ_PATTERNS]


def to_digraph(graph):
    """A rank-2 hypergraph as a networkx DiGraph with edge-label sets."""
    result = nx.DiGraph()
    result.add_nodes_from(graph.nodes())
    for _, edge in graph.edges():
        if len(edge.att) != 2:
            raise ValueError(f"rank-{len(edge.att)} edge; the benchmark "
                             "corpora are rank 2")
        source, target = edge.att
        if result.has_edge(source, target):
            result[source][target]["labels"].add(edge.label)
        else:
            result.add_edge(source, target, labels={edge.label})
    return result


def fingerprint(graph):
    """Isomorphism-invariant summary: per node, the sorted (label,
    position) pairs of its edges, as a sorted list.  Equal for
    isomorphic graphs; used because exact isomorphism is too slow."""
    profile = []
    for node in graph.nodes():
        signature = []
        for eid in graph.incident(node):
            edge = graph.edge(eid)
            signature.append((edge.label, edge.att.index(node)))
        profile.append(tuple(sorted(signature)))
    return len(profile), graph.num_edges, sorted(profile)


class GraphOracle:
    """Decompress-then-query answers, memoized per source."""

    def __init__(self, graph, label_id, label_name):
        self.graph = to_digraph(graph)
        self.label_id = label_id
        self.label_name = label_name
        self._dag = nx.condensation(self.graph)
        self._dag_of = self._dag.graph["mapping"]
        self._descendants = {}
        self._distances = {}
        self._rpq = {}

    def answer(self, request):
        kind = request[0]
        if kind == "out":
            return sorted(self.graph.successors(request[1]))
        if kind == "in":
            return sorted(self.graph.predecessors(request[1]))
        if kind == "neighborhood":
            node = request[1]
            return sorted(set(self.graph.successors(node))
                          | set(self.graph.predecessors(node)))
        if kind == "degree":
            return self.graph.out_degree(request[1])
        if kind == "reach":
            return self.reach(request[1], request[2])
        if kind == "rpq":
            return self.rpq(request[1], request[2], request[3])
        raise ValueError(f"no oracle for {kind!r}")

    def reach(self, source, target):
        if source == target:
            return True
        component = self._dag_of[source]
        seen = self._descendants.get(component)
        if seen is None:
            seen = nx.descendants(self._dag, component) | {component}
            self._descendants[component] = seen
        return self._dag_of[target] in seen

    def distance(self, source, target):
        lengths = self._distances.get(source)
        if lengths is None:
            lengths = nx.single_source_shortest_path_length(
                self.graph, source)
            self._distances[source] = lengths
        return lengths.get(target)

    def path_ok(self, source, target, path):
        """A returned path is right when it is a walk from ``source`` to
        ``target`` of the shortest length, or ``None`` when unreachable."""
        distance = self.distance(source, target)
        if path is None:
            return distance is None
        if distance is None or len(path) != distance + 1:
            return False
        if path[0] != source or path[-1] != target:
            return False
        return all(self.graph.has_edge(u, v) for u, v in zip(path, path[1:]))

    def rpq(self, text, source, target):
        accepted = self._rpq.get((text, source))
        if accepted is None:
            step, final = self._automaton(text)
            accepted = set()
            seen = {(source, 0)}
            frontier = [(source, 0)]
            while frontier:
                node, state = frontier.pop()
                if state in final:
                    accepted.add(node)
                following = step.get(state)
                if following is None:
                    continue
                for succ in self.graph.successors(node):
                    if self.label_id not in self.graph[node][succ]["labels"]:
                        continue
                    if (succ, following) not in seen:
                        seen.add((succ, following))
                        frontier.append((succ, following))
            self._rpq[(text, source)] = accepted
        return target in accepted

    def _automaton(self, text):
        for template, step, final in RPQ_PATTERNS:
            if template.format(L=self.label_name) == text:
                return step, final
        raise ValueError(f"no oracle automaton for {text!r}")


def bfs_reach(adjacency, source, target):
    """Plain BFS on an adjacency dict: the decompress-then-query
    baseline of the paper's speed-up claim."""
    if source == target:
        return True
    seen = {source}
    frontier = [source]
    while frontier:
        following = []
        for node in frontier:
            for succ in adjacency.get(node, ()):
                if succ == target:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    following.append(succ)
        frontier = following
    return False


def adjacency_of(graph):
    adjacency = {}
    for _, edge in graph.edges():
        adjacency.setdefault(edge.att[0], []).append(edge.att[-1])
    return adjacency
