/* Compiled partition walk of the enumeration kernel: the tails of parts
 * > L of every sum t <= n, counted per sum and per cell where they break
 * each row's chain.
 *
 * Same contract as mexmoments._pure.walk, which the tests run against
 * this module: walk(n, s, M, L) returns (nodes, breaks), nodes[t] the
 * tails of sum t and breaks one flat list per row A-1 with A <= min(M, n),
 * n/M + 2 cells of n + 1 sums each.  mexmoments._pure.mex_value_counts
 * assembles the histograms from these counts and the counts of the small
 * parts 1..L, and passes L, so the constant lives in Python alone.
 *
 * The walk visits each tail with t <= n once: 19,279 nodes at n = 55 for
 * L = 4.  Each part k in L+1..M+L is the first place above L of exactly
 * one row's chain, and a row keeps that cell unless k occurs at least s
 * times.  So a node follows only the chains that its saturated parts
 * k <= M+L start, and costs the same for any M.  The walk runs on C
 * integers with the interpreter lock released; int64 counters hold every
 * count up to mexmoments._pure.ORACLE_CAP (p(60) is about 9.7e5) and far
 * beyond.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    int n, s, M, L;
    Py_ssize_t stride;   /* n + 1: one count per tail sum t */
    int *freq;           /* freq[k] = multiplicity of part k, k = L+1..n */
    int64_t *nodes;      /* tails per sum t */
    int64_t *breaks;     /* per row, cells x stride: tails of sum t that
                          * break the chain past its first place above L */
    int64_t **follow_at; /* follow_at[k], k = L+1..min(M+L, n): in the row
                          * whose chain k starts, the cell after k at t = 0 */
    int *followed;       /* saturated parts k <= M+L of the current tail */
    int nfollowed;
} walk_state;

static void visit(walk_state *w, int t, int max_part)
{
    w->nodes[t]++;
    for (int i = 0; i < w->nfollowed; i++) {
        int k = w->followed[i];
        int64_t *cell = w->follow_at[k] + t;
        while (k <= w->n - w->M && w->freq[k + w->M] >= w->s) {
            k += w->M;
            cell += w->stride;
        }
        (*cell)++;
    }
    for (int part = w->n - t < max_part ? w->n - t : max_part; part > w->L; part--) {
        int follow = ++w->freq[part] == w->s && w->follow_at[part] != NULL;
        if (follow)
            w->followed[w->nfollowed++] = part;
        visit(w, t + part, part);
        w->nfollowed -= follow;
        w->freq[part]--;
    }
}

static PyObject *to_list(const int64_t *xs, Py_ssize_t size)
{
    PyObject *list = PyList_New(size);
    if (list == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < size; i++) {
        PyObject *item = PyLong_FromLongLong(xs[i]);
        if (item == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

static PyObject *walk(PyObject *self, PyObject *args)
{
    walk_state w = {0};
    if (!PyArg_ParseTuple(args, "iiii:walk", &w.n, &w.s, &w.M, &w.L))
        return NULL;
    if (w.n < 0 || w.s < 1 || w.M < 1 || w.L < 0)
        return PyErr_Format(PyExc_ValueError, "walk needs n >= 0, s >= 1, M >= 1 and L >= 0");
    if (w.L > w.n) /* no tail has a part above n; keeps L + 1 an int */
        w.L = w.n;

    const int rows = w.M < w.n ? w.M : w.n;
    const Py_ssize_t cells = w.n / w.M + 2;
    const Py_ssize_t row_size = cells * (w.n + 1);
    w.stride = (Py_ssize_t)w.n + 1;
    w.freq = calloc((size_t)w.n + 1, sizeof(int));
    w.nodes = calloc((size_t)w.stride, sizeof(int64_t));
    /* One spare cell: with no row (n = 0) calloc(0) may return NULL. */
    w.breaks = calloc((size_t)rows * row_size + 1, sizeof(int64_t));
    w.follow_at = calloc((size_t)w.n + 1, sizeof(int64_t *));
    w.followed = calloc((size_t)w.n + 1, sizeof(int));
    PyObject *result = NULL, *nodes = NULL, *breaks = NULL;
    if (w.freq == NULL || w.nodes == NULL || w.breaks == NULL || w.follow_at == NULL ||
        w.followed == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* Part k in L+1..M+L is the first place above L of row (k-1) mod M,
     * at cell (L - A + M) / M of that row, A = (k-1) mod M + 1. */
    for (int k = w.L + 1; k <= w.n && k - w.L <= w.M; k++) {
        int a0 = (k - 1) % w.M;
        w.follow_at[k] = w.breaks + a0 * row_size + ((w.L - a0 - 1 + w.M) / w.M + 1) * w.stride;
    }
    Py_BEGIN_ALLOW_THREADS
    visit(&w, 0, w.n);
    Py_END_ALLOW_THREADS

    nodes = to_list(w.nodes, w.stride);
    breaks = nodes == NULL ? NULL : PyList_New(rows);
    if (breaks == NULL)
        goto done;
    for (int a0 = 0; a0 < rows; a0++) {
        PyObject *row = to_list(w.breaks + a0 * row_size, row_size);
        if (row == NULL)
            goto done;
        PyList_SET_ITEM(breaks, a0, row);
    }
    result = PyTuple_Pack(2, nodes, breaks);
done:
    Py_XDECREF(nodes);
    Py_XDECREF(breaks);
    free(w.freq);
    free(w.nodes);
    free(w.breaks);
    free(w.follow_at);
    free(w.followed);
    return result;
}

static PyMethodDef speed_methods[] = {
    {"walk", walk, METH_VARARGS,
     "walk(n, s, M, L) -> (nodes, breaks)\n\n"
     "Walk the partitions of every t <= n into parts > L.\n"
     "Same contract as mexmoments._pure.walk."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speed_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_speed",
    .m_doc = "Compiled partition walk of the enumeration kernel.",
    .m_size = -1,
    .m_methods = speed_methods,
};

PyMODINIT_FUNC PyInit__speed(void)
{
    return PyModule_Create(&speed_module);
}
